package experiments

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Engine metric names, exposed when Options.Metrics is set.
const (
	// MetricCells counts grid cells (one population draw plus every
	// method's estimate) executed by the experiment engine.
	MetricCells = "fednum_experiment_cells_total"
	// MetricWorkerBusy accumulates the seconds workers spent executing
	// cells, across all workers. Comparing it against wall time gives the
	// engine's parallel efficiency.
	MetricWorkerBusy = "fednum_experiment_worker_busy_seconds_total"
)

// engineMetrics bundles the engine's instruments; nil disables recording.
type engineMetrics struct {
	cells *obs.Counter
	busy  *obs.FloatCounter
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		cells: reg.Counter(MetricCells, "experiment grid cells executed"),
		busy:  reg.FloatCounter(MetricWorkerBusy, "cumulative seconds experiment workers spent executing cells"),
	}
}

// scratchPool keeps worker Scratches warm across runCells calls, so a
// run of several figures sizes its buffers once, not once per sweep.
// Nothing a Scratch carries over can change a result: every Into variant
// overwrites the buffers it reads, and the GeometricProbs cache is keyed
// by the exact shape.
var scratchPool = sync.Pool{New: func() any { return new(core.Scratch) }}

// runCells executes fn(cell, scratch) for every cell in [0, n) across a
// pool of workers. Each worker holds one core.Scratch from scratchPool for
// the whole call; fn must confine itself to cell-indexed data (its own
// pre-split RNG, its own output slot) and copy out of the Scratch what
// outlives the cell, so that execution order cannot influence results —
// determinism across worker counts is the engine's contract, enforced by
// tests and by the fedlint rngshare analyzer (no *frand.RNG may cross a
// goroutine).
func runCells(n, workers int, m *engineMetrics, fn func(cell int, s *core.Scratch)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := scratchPool.Get().(*core.Scratch)
		defer scratchPool.Put(s)
		for ci := 0; ci < n; ci++ {
			runCell(ci, s, m, fn)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*core.Scratch)
			defer scratchPool.Put(s)
			for ci := range jobs {
				runCell(ci, s, m, fn)
			}
		}()
	}
	for ci := 0; ci < n; ci++ {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()
}

func runCell(ci int, s *core.Scratch, m *engineMetrics, fn func(int, *core.Scratch)) {
	if m == nil {
		fn(ci, s)
		return
	}
	start := time.Now()
	fn(ci, s)
	m.busy.Add(time.Since(start).Seconds())
	m.cells.Inc()
}
