package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport/wire"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	sorted := make([]float64, 999)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if _, err := percentile(sorted, 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it but was not refused")
	}
	got, err := percentile(append(sorted, 999), 99)
	if err != nil || got != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989", got, err)
	}
}

func TestSummarizeSegmentsAndSkipsUnacked(t *testing.T) {
	samples := make([]float64, 3050)
	for i := range samples {
		samples[i] = float64(i % 1000)
	}
	samples[7] = -1 // never acked
	s, err := summarize(samples, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3049 || s.Segments != 3 || s.TailP != 99 {
		t.Fatalf("summary %+v: want 3049 samples in 3 segments at p99", s)
	}
	if s, err := summarize(samples, latencySegment); err != nil || s.Segments != 6 || s.TailP != 90 {
		t.Errorf("summary %+v, %v: want 6 segments of 500 at p90", s, err)
	}
	if s, err := summarize(samples, 0); err != nil || s.Segments != 1 || s.TailP != 99 {
		t.Errorf("summary %+v, %v: want one segment at p99", s, err)
	}
	if _, err := summarize(samples[:9], latencySegment); err == nil {
		t.Error("9 samples made a segment")
	}
}

func TestSummarizeTailIsMedianOverSegments(t *testing.T) {
	// Three segments of 1000, each shifted by 100 ms more than the last:
	// their p99s are 989, 1089 and 1189.
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = float64(i%1000 + i/1000*100)
	}
	s, err := summarize(samples, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail != 1089 {
		t.Errorf("tail %v of segment tails %v; want their median 1089", s.Tail, s.SegmentTails)
	}
	if s.P50 != 599 {
		t.Errorf("p50 %v; want 599, the median over all samples", s.P50)
	}
	// Fewer samples than a segment are read as one segment.
	if s, err := summarize(samples[:200], latencySegment); err != nil || s.Segments != 1 || s.TailP != 90 {
		t.Errorf("summary %+v, %v: want one segment of 200 at p90", s, err)
	}
}

func TestTallySeparatesConflictsFromErrors(t *testing.T) {
	var tl tally
	// A deliberate conflict answered as a conflict is correct.
	if !tl.reported(nil, wire.AckConflict, jsonStatus(wire.ReportAck{Reason: conflictReason})) {
		t.Error("deliberate conflict answered with a conflict counted as a failure")
	}
	// Any other rejection of it, or a conflict where an accept was
	// expected, is a failure; so are transport errors and failed fetches.
	tl.reported(nil, wire.AckConflict, jsonStatus(wire.ReportAck{Reason: "no task assigned"}))
	tl.reported(nil, wire.AckAccepted, wire.AckConflict)
	tl.reported(errors.New("connection reset"), wire.AckAccepted, wire.AckAccepted)
	tl.fetched(errors.New("503"))
	if !tl.reported(nil, wire.AckDuplicate, jsonStatus(wire.ReportAck{Accepted: true, Duplicate: true})) {
		t.Error("expected duplicate counted as a failure")
	}
	if tl != (tally{attempted: 6, failed: 4, conflicts: 1}) {
		t.Errorf("tally %+v, want 6 attempted, 4 failed, 1 conflict", tl)
	}
}

func TestGateCatchesCountMismatch(t *testing.T) {
	in := newInputs(3)
	r, err := openRig(t.TempDir(), in.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ctx := context.Background()
	var accepted []core.Report
	for i := 0; i < 200; i++ {
		id := clientID("t-", i)
		task, err := r.srv.AssignTask(ctx, r.session, id)
		if err != nil {
			t.Fatal(err)
		}
		rep := wire.Report{ClientID: id, Bit: task.Bit, Value: in.value(i) >> uint(task.Bit) & 1}
		ack, err := r.srv.SubmitReport(ctx, r.session, rep)
		if err != nil || jsonStatus(ack) != wire.AckAccepted {
			t.Fatalf("report %d: %+v, %v", i, ack, err)
		}
		accepted = append(accepted, core.Report{Bit: rep.Bit, Value: rep.Value})
	}
	// One report the generator believes accepted but the server never saw.
	injected := append(append([]core.Report(nil), accepted...), core.Report{Bit: 0, Value: 1})
	if _, err := gateLive(r.srv, r.session, injected); err == nil || !strings.Contains(err.Error(), "reports 200, reference 201") {
		t.Fatalf("gate passed an injected count mismatch: %v", err)
	}
	// The true ledger passes live and after WAL replay.
	if _, _, err := gateRig(r, accepted, in.seed); err != nil {
		t.Fatalf("gate failed the true ledger: %v", err)
	}
	// A per-bit count swap that keeps the total is caught too.
	cfg, err := referenceConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Aggregate(cfg, accepted)
	if err != nil {
		t.Fatal(err)
	}
	res := &wire.Result{Reports: want.Reports, Counts: append([]int(nil), want.Counts...), Sums: want.Sums, Estimate: want.Estimate}
	res.Counts[0]++
	res.Counts[1]--
	if err := checkResult(res, want); err == nil {
		t.Error("checkResult passed swapped per-bit counts")
	}
}

func TestDescribeMatchesBenchmarkJSON(t *testing.T) {
	got, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the definitions; regenerate it with --describe:\n%s", got)
	}
}
