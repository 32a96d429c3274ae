package main

import (
	"encoding/json"
	"sort"

	"repro/internal/experiments"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports on every workload.
// Each names one user-visible quantity whose meaning per workload the
// README's table gives.
var endToEnd = []metricDef{
	{"work_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"heap_per_unit_b", "B", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not touch reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"http.task_handler_us", "us", "lower", 0},
		{"http.report_handler_us", "us", "lower", 0},
		{"http.batch_handler_us", "us", "lower", 0},
		{"http.client_overhead_us", "us", "lower", 0},
		{"http.requests_per_report", "count", "lower", 0},
		{"wire.batch_decode_ns_per_report", "ns", "lower", 0},
		{"wire.ack_encode_ns_per_report", "ns", "lower", 0},
		{"wire.json_ns_per_report", "ns", "lower", 0},
		{"wire.task_json_ns", "ns", "lower", 0},
		{"server.assign_us", "us", "lower", 0},
		{"server.accept_us", "us", "lower", 0},
		{"server.duplicate_us", "us", "lower", 0},
		{"server.finalize_ms", "ms", "lower", 0},
		{"server.heap_bytes_per_client", "B", "lower", 0},
		{"wal.records_per_report", "count", "lower", 0},
		{"wal.bytes_per_report", "B", "lower", 0},
		{"wal.fsyncs_per_report", "count", "lower", 0},
		{"wal.append_us", "us", "lower", 0},
		{"wal.flush_us", "us", "lower", 0},
		{"wal.flush_busy_share", "share", "lower", 0},
		{"wal.replay_records_per_s", "1/s", "higher", 0},
		{"wal.recovery_s", "s", "lower", 0},
		{"client.attempts_per_op", "count", "lower", 0},
		{"client.error_rate", "share", "lower", 0},
		{"experiments.allocs_per_cell", "count", "lower", 0},
		{"runtime.gc_cpu_share", "share", "lower", 0},
		{"runtime.alloc_bytes_per_report", "B", "lower", 0},
		{"loadgen.late_p99_ms", "ms", "lower", 0},
		{"loadgen.acked_reports_per_s", "1/s", "higher", 0},
		{"trace.overhead_share", "share", "lower", 0},
		{"trace.unattributed_share", "share", "lower", 0},
	}
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s", "lower", 0})
	}
	return defs
}

// layerTemplate is every per-layer metric at 0.
func layerTemplate() map[string]float64 {
	m := make(map[string]float64)
	for _, d := range perLayer() {
		m[d.Name] = 0
	}
	return m
}

// workloadDoc is a workload's line in BENCHMARK.json.
type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDoc    `json:"per_layer"`
}

// layerDoc drops the bound, which per-layer metrics do not have.
type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measurement window the benchmark declares.
const runSeconds = 15

// describe renders BENCHMARK.json from the definitions in this package.
func describe() ([]byte, error) {
	doc := benchmarkDoc{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return workloads[names[i]].order < workloads[names[j]].order })
	for _, n := range names {
		doc.Workloads = append(doc.Workloads, workloadDoc{n, workloads[n].why})
	}
	for _, d := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, layerDoc{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
