// Command perfbench is the repository's benchmark. It runs one named
// workload against in-process code built from this checkout and prints,
// as the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer table. See README.md for
// the workloads, the loops each phase uses and what every metric means.
//
// Usage:
//
//	bash perfbench/run.sh --workload fresh-batch --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --describe   # BENCHMARK.json from the definitions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// workload is one named traffic mix.
type benchWorkload struct {
	order int
	why   string
	run   func(runConfig) (*outcome, error)
}

// The open-loop rates are constants so every later commit is offered the
// same load. They are set well below saturation, not at half of it. On
// the 2-vCPU host the benchmark was defined on, the shared disk slowed
// its fsyncs several-fold for seconds to minutes at a time. With both
// submitters then busy for longer than the gap between due times, a
// backlog formed and the open-loop tails rose tenfold: fresh-json-retry
// offered 400/s and fresh-batch offered 640/s fell 13 to 53 ms behind
// schedule. At the rates below, a submitter has about 10 ms per JSON
// client and 3 ms per task fetch, several times a quiet request, so a
// slow disk lengthens each request without building a backlog. dup-storm
// writes no WAL and is offered a quarter of its saturation rate.
//
// The traffic mix: fresh-json-retry's 12% retransmissions are the lost-ack
// plus duplicate-delivery mix of the repository's chaos soak
// (internal/chaos/soak_test.go: LoseAck 0.06, Duplicate 0.06). Its
// conflict share of 1/64 has no source in observed traffic; it is an
// arbitrary small constant that runs the reject path a few hundred times a
// window while accepts dominate. The storm pool of 4096 is fedbench
// -ingest's rule of one batch of clients per submitter, at BENCH_10's
// largest submitter count (16) and this workload's batch of 256.
var workloads = map[string]benchWorkload{
	"fresh-batch": {0, "new clients fetch a JSON task, reports go in binary batches of 64: assignment and its per-client fsync dominate",
		ingestWorkload{ingestSpec{mode: modeFreshBatch, batch: 64, rate: 320, openUnits: 6400, setups: 63}}.run},
	"fresh-json-retry": {1, "new clients report singly over JSON with lost-ack retransmissions and conflicts: HTTP, JSON and the reject paths",
		ingestWorkload{ingestSpec{mode: modeFreshJSON, retryShare: 0.12, conflictShare: 1.0 / 64, rate: 200, openUnits: 3000, setups: 63}}.run},
	"dup-storm": {2, "a pre-assigned pool re-sends binary batches of 256 with the WAL attached but unwritten: decode, table read lock, ack encode",
		ingestWorkload{ingestSpec{mode: modeStorm, batch: 256, pool: 4096, rate: 2600, openUnits: 8000, setups: 7}}.run},
	"paper-figures": {3, "every paper figure through the experiment engine: the only workload on core, frand, ldp, workload and experiments",
		figuresWorkload{}.run},
}

// runConfig is one run's settings.
type runConfig struct {
	seed   uint64
	window time.Duration
	traced bool
	root   string
	stderr io.Writer
	dirs   int
}

// newDir names the next scratch directory of the run.
func (c *runConfig) newDir() string {
	c.dirs++
	return filepath.Join(c.root, "rig"+strconv.Itoa(c.dirs))
}

// outcome is a run's result line plus diagnostic details.
type outcome struct {
	t       tally
	err     error
	metrics map[string]float64
	details map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, details: map[string]any{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }
func (o *outcome) detail(k string, v any)     { o.details[k] = v }

// fail marks the run's outputs wrong.
func (o *outcome) fail(err error) *outcome {
	o.err = err
	return o
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the run's inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory the run's write-ahead logs are created under")
	desc := fs.Bool("describe", false, "print BENCHMARK.json as the definitions in this package render it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *desc {
		b, err := describe()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	root, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		if err := removeRun(root); err != nil {
			fmt.Fprintln(stderr, "perfbench: removing the run's logs:", err)
		}
	}()
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		root:   root,
		stderr: stderr,
	}
	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.traced {
		out.set("client.error_rate", ratio(float64(out.t.failed), float64(out.t.attempted)))
		defs = perLayer()
	}
	line := resultLine{Correct: out.err == nil && out.t.failed == 0, Attempted: out.t.attempted, Failed: out.t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && out.err == nil {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", *name, d.Name)
			return 1
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	out.details["host"] = hostInfo(root)
	out.details["workload"] = *name
	out.details["seed"] = *seed
	out.details["conflicts_answered"] = out.t.conflicts
	if out.err != nil {
		out.details["error"] = out.err.Error()
		fmt.Fprintf(stderr, "perfbench: %s: outputs are wrong: %v\n", *name, out.err)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(out.details); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !line.Correct {
		return 3
	}
	return 0
}

// hostInfo records where the numbers came from. fsync latencies are
// those of the storage under the WAL directory: on a virtual machine or
// container sandbox that is a virtual disk, not a physical device.
func hostInfo(dir string) map[string]any {
	return map[string]any{
		"go_version":  runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"submitters":  submitters(),
		"wal_fsync":   syncPolicy.String(),
		"wal_fs":      fsName(dir),
		"fsync_media": "the host's storage stack as seen from this process (a virtual disk in a VM or container sandbox), not a measured physical device",
	}
}

// fsName names the filesystem holding dir from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("statfs type %#x", uint64(st.Type))
}
