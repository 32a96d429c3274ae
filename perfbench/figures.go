package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/frand"
	"repro/internal/obs"
)

// figuresWorkload runs every registered paper figure through the
// experiment engine, pass after pass.
type figuresWorkload struct{}

const (
	// figureReps and figureSeed fix the experiments' own inputs, so every
	// pass must print the same tables. The run's --seed only orders the
	// figures within each pass.
	figureReps = 2
	figureSeed = 1
	// warmupFigure is run figureSetups times at set-up to fill the
	// estimator's caches; setup_s is the median run.
	warmupFigure = "1c"
	figureSetups = 15
)

// goldenDigests is the SHA-256 of every figure's table, in id order, at
// figureReps and figureSeed, recorded when the benchmark was defined.
// Go may fuse floating-point operations on some architectures, so a
// digest holds for the architecture it was recorded on.
var goldenDigests = map[string]string{
	"amd64": "d0c6f5c844db81aa1286942718570fc4733ebddf8a62630a091fa6307d2bb8d5",
}

// figuresDigest hashes the figure tables in id order.
func figuresDigest(results map[string]*experiments.FigureResult) (string, error) {
	h := sha256.New()
	var buf bytes.Buffer
	for _, id := range experiments.IDs() {
		res, ok := results[id]
		if !ok {
			return "", fmt.Errorf("figure %s missing from the pass", id)
		}
		buf.Reset()
		if err := res.WriteTable(&buf); err != nil {
			return "", err
		}
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigest fails unless the pass printed the recorded tables.
func checkDigest(got string) error {
	want, ok := goldenDigests[runtime.GOARCH]
	if !ok {
		return fmt.Errorf("no golden figure digest recorded for %s", runtime.GOARCH)
	}
	if got != want {
		return fmt.Errorf("figure tables digest %s, golden %s: a numeric change must be deliberate", got, want)
	}
	return nil
}

// figurePasses is what a window of passes measured.
type figurePasses struct {
	passes    int
	cells     uint64
	wall      time.Duration
	passRates []float64
	latencies []float64
	figTime   map[string]time.Duration
	figRuns   map[string]int
}

// runPasses runs whole passes over every figure until window has passed,
// each pass in an order drawn from rng.
func runPasses(opts experiments.Options, cells *obs.Counter, rng *frand.RNG, window time.Duration, rec *recorder, t *tally) (*figurePasses, error) {
	ids := experiments.IDs()
	order := make([]int, len(ids))
	fp := &figurePasses{figTime: map[string]time.Duration{}, figRuns: map[string]int{}}
	start := time.Now()
	c0 := cells.Value()
	for time.Since(start) < window {
		passStart := time.Now()
		pc0 := cells.Value()
		rng.PermInto(order)
		results := make(map[string]*experiments.FigureResult, len(ids))
		for _, k := range order {
			id := ids[k]
			sp := rec.begin("experiments." + id)
			t0 := time.Now()
			res, err := experiments.Run(id, opts)
			d := time.Since(t0)
			rec.end(sp)
			t.attempted++
			if err != nil {
				t.failed++
				return nil, fmt.Errorf("figure %s: %w", id, err)
			}
			results[id] = res
			fp.latencies = append(fp.latencies, ms(d))
			fp.figTime[id] += d
			fp.figRuns[id]++
		}
		sp := rec.begin("loadgen.digest")
		digest, err := figuresDigest(results)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if err := checkDigest(digest); err != nil {
			return fp, err
		}
		fp.passes++
		fp.passRates = append(fp.passRates, float64(cells.Value()-pc0)/time.Since(passStart).Seconds())
	}
	fp.wall = time.Since(start)
	fp.cells = cells.Value() - c0
	return fp, nil
}

func (figuresWorkload) run(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	reg := obs.NewRegistry()
	cells := reg.Counter(experiments.MetricCells, "experiment grid cells executed")
	opts := experiments.Options{Reps: figureReps, Seed: figureSeed, Workers: submitters(), Metrics: reg}
	rng := frand.New(cfg.seed)

	var setups []float64
	for k := 0; k < figureSetups; k++ {
		start := time.Now()
		if _, err := experiments.Run(warmupFigure, opts); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	rt0 := readRuntime()
	fp, err := runPasses(opts, cells, rng, window, nil, &out.t)
	if err != nil {
		if fp != nil {
			return out.fail(err), nil
		}
		return nil, err
	}
	rt := readRuntime().sub(rt0)
	// The engine retains almost nothing between figures, so its memory
	// cost is the heap it allocates per cell.
	allocPerCell := ratio(float64(rt.allocBytes), float64(fp.cells))
	// A pass is long (about 0.7 s) and CPU-bound, so its median rate is
	// steadier than its fastest passes: over ten runs the median spread
	// 0.045 and the fastest quarter 0.076.
	workPerS := median(fp.passRates)
	out.detail("passes", map[string]any{
		"passes": fp.passes, "cells_per_pass": float64(fp.cells) / float64(fp.passes), "pass_rates": fp.passRates,
	})
	if !cfg.traced {
		lat, err := summarize(fp.latencies, 0)
		if err != nil {
			return nil, err
		}
		out.detail("latency", map[string]any{"figure_runs": lat.N, "tail_percentile": lat.TailP})
		out.set("work_per_s", workPerS)
		out.set("latency_p50_ms", lat.P50)
		out.set("latency_tail_ms", lat.Tail)
		out.set("heap_per_unit_b", allocPerCell)
		out.set("setup_s", median(setups))
		return out, nil
	}

	rec := newRecorder()
	tp, err := runPasses(opts, cells, rng, window, rec, &out.t)
	if err != nil {
		if tp != nil {
			return out.fail(err), nil
		}
		return nil, err
	}
	spans := rec.aggregate()
	writeTable(cfg.stderr, spans)
	m := layerTemplate()
	var spanned time.Duration
	for _, st := range spans {
		spanned += st.Total
	}
	for id, d := range tp.figTime {
		m["experiments."+id+"_s"] = d.Seconds() / float64(tp.figRuns[id])
	}
	m["experiments.allocs_per_cell"] = ratio(float64(rt.allocs), float64(fp.cells))
	m["runtime.gc_cpu_share"] = ratio(rt.gcCPU, rt.totalCPU)
	m["runtime.alloc_bytes_per_report"] = allocPerCell
	m["trace.overhead_share"] = 1 - ratio(median(tp.passRates), workPerS)
	m["trace.unattributed_share"] = ratio((tp.wall - spanned).Seconds(), tp.wall.Seconds())
	out.metrics = m
	return out, nil
}
