package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/frand"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrUnknownFigure reports a figure id outside the registry.
var ErrUnknownFigure = errors.New("experiments: unknown figure")

// Options tunes an experiment run.
type Options struct {
	// Reps is the number of independent repetitions per point. Zero means
	// 100, the paper's setting. Benchmarks use small values.
	Reps int
	// N overrides the default client population size (0 keeps each
	// figure's paper default, typically 10000).
	N int
	// Seed makes the whole figure reproducible.
	Seed uint64
	// Workers bounds the number of goroutines executing grid cells. Zero
	// means runtime.GOMAXPROCS(0); 1 forces serial execution. Every cell's
	// RNG is derived purely from (Seed, cell index), so a figure's result
	// is bit-identical at any worker count.
	Workers int
	// Metrics optionally receives engine counters (cells executed, worker
	// busy seconds); nil disables instrumentation.
	Metrics *obs.Registry
}

func (o Options) reps() int {
	if o.Reps <= 0 {
		return 100
	}
	return o.Reps
}

func (o Options) n(def int) int {
	if o.N <= 0 {
		return def
	}
	return o.N
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// withSeed copies the options (keeping Workers, Metrics and every future
// field) with a different seed, for figures that run sub-sweeps.
func (o Options) withSeed(seed uint64) Options {
	o.Seed = seed
	return o
}

// Point is one x-position of one series.
type Point struct {
	X       float64
	Summary stats.ErrorSummary
}

// Series is one method's curve across the sweep.
type Series struct {
	Method string
	Points []Point
}

// FigureResult is a regenerated figure: the paper's plotted series as data.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// population produces encoded values and their bit depth for one sweep
// position and repetition.
type population func(x float64, rep int, r *frand.RNG) (values []uint64, bits int)

// estimate runs one method once. The core.Scratch is the executing
// worker's reusable buffer; estimates may ignore it or pass it to the
// core's Into variants.
type estimate func(values []uint64, bits int, r *frand.RNG, s *core.Scratch) (float64, error)

// runSweep executes the generic figure loop: for every x and repetition,
// draw a fresh population, compute its empirical ground truth, run every
// method, and summarize errors per (method, x).
//
// The (x, rep) grid cells execute on the engine's worker pool. Cell i's
// RNG is the i-th Split of frand.New(opts.Seed) in x-major, rep-minor
// order — exactly the stream the historical serial loop consumed — and the
// reduction runs serially in the same order, so the result is bit-identical
// at any worker count.
//
// Because each repetition redraws the population, errors are measured
// against that repetition's own empirical truth (the paper's protocol) and
// the summary normalizes by the mean truth across repetitions.
func runSweep(xs []float64, pop population, names []string, run []estimate, truthFn func([]uint64) float64, opts Options) ([]Series, error) {
	series := make([]Series, len(run))
	for m := range series {
		series[m] = Series{Method: names[m], Points: make([]Point, 0, len(xs))}
	}
	reps := opts.reps()
	nCells := len(xs) * reps
	rngs := frand.New(opts.Seed).SplitN(nCells)

	type cellOut struct {
		truth float64
		ests  []float64
		err   error
	}
	cells := make([]cellOut, nCells)
	estSlab := make([]float64, nCells*len(run))
	for ci := range cells {
		cells[ci].ests = estSlab[ci*len(run) : (ci+1)*len(run) : (ci+1)*len(run)]
	}
	runCells(nCells, opts.workers(), newEngineMetrics(opts.Metrics), func(ci int, s *core.Scratch) {
		c := &cells[ci]
		x := xs[ci/reps]
		r := rngs[ci]
		values, bits := pop(x, ci%reps, r)
		c.truth = truthFn(values)
		for m, f := range run {
			est, err := f(values, bits, r, s)
			if err != nil {
				c.err = fmt.Errorf("experiments: method %s at x=%v: %w", names[m], x, err)
				return
			}
			c.ests[m] = est
		}
	})

	// Serial reduction in the original (x, rep) order; the lowest-index
	// cell error wins, matching the serial loop's first-error semantics.
	errsPerMethod := make([][]float64, len(run))
	for xi, x := range xs {
		var truthSum float64
		for m := range run {
			errsPerMethod[m] = errsPerMethod[m][:0]
		}
		for rep := 0; rep < reps; rep++ {
			c := &cells[xi*reps+rep]
			if c.err != nil {
				return nil, c.err
			}
			truthSum += c.truth
			for m := range run {
				errsPerMethod[m] = append(errsPerMethod[m], c.ests[m]-c.truth)
			}
		}
		meanTruth := truthSum / float64(reps)
		for m := range run {
			// Re-center the errors onto the mean truth so stats.Summarize
			// yields the same RMSE/NRMSE as a per-repetition-truth
			// computation.
			shifted := make([]float64, len(errsPerMethod[m]))
			for i, e := range errsPerMethod[m] {
				shifted[i] = meanTruth + e
			}
			series[m].Points = append(series[m].Points, Point{
				X:       x,
				Summary: stats.Summarize(shifted, meanTruth),
			})
		}
	}
	return series, nil
}

// methodEstimate adapts a Method to the engine's estimate signature,
// preferring the allocation-lean ScratchMethod entry point when available.
func methodEstimate(m Method) estimate {
	if sm, ok := m.(ScratchMethod); ok {
		return sm.EstimateMeanInto
	}
	return func(values []uint64, bits int, r *frand.RNG, _ *core.Scratch) (float64, error) {
		return m.EstimateMean(values, bits, r)
	}
}

// runMeanSweep adapts Method implementations to runSweep with the exact
// mean as ground truth.
func runMeanSweep(xs []float64, pop population, methods []Method, opts Options) ([]Series, error) {
	names := make([]string, len(methods))
	fns := make([]estimate, len(methods))
	for i, m := range methods {
		names[i] = m.Name()
		fns[i] = methodEstimate(m)
	}
	return runSweep(xs, pop, names, fns, fixedpoint.Mean, opts)
}

// runVarianceSweep adapts VarEstimator implementations with the exact
// population variance as ground truth.
func runVarianceSweep(xs []float64, pop population, methods []VarEstimator, opts Options) ([]Series, error) {
	names := make([]string, len(methods))
	fns := make([]estimate, len(methods))
	for i, m := range methods {
		names[i] = m.Name()
		fns[i] = m.EstimateVariance
	}
	return runSweep(xs, pop, names, fns, fixedpoint.Variance, opts)
}

// WriteTable renders the figure as an aligned text table.
func (f *FigureResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s", f.XLabel); err != nil {
		return err
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, "  %-22s", s.Method); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "   [%s]\n", f.YLabel); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].Points {
		if _, err := fmt.Fprintf(w, "%-14g", f.Series[0].Points[i].X); err != nil {
			return err
		}
		for _, s := range f.Series {
			p := s.Points[i]
			if _, err := fmt.Fprintf(w, "  %-22s", fmt.Sprintf("%.4g ±%.2g", yValue(f.YLabel, p), yErr(f.YLabel, p))); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// yErr returns the standard error on the same scale as yValue.
func yErr(ylabel string, p Point) float64 {
	if strings.Contains(ylabel, "NRMSE") && p.Summary.Truth != 0 {
		return p.Summary.StdErr / math.Abs(p.Summary.Truth)
	}
	return p.Summary.StdErr
}

// WriteCSV renders the figure as CSV rows (figure, method, x, y, stderr).
func (f *FigureResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,method,x,y,stderr,rmse,nrmse,bias,reps"); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%g,%g,%d\n",
				f.ID, csvEscape(s.Method), p.X, yValue(f.YLabel, p), p.Summary.StdErr,
				p.Summary.RMSE, p.Summary.NRMSE, p.Summary.Bias, p.Summary.Reps); err != nil {
				return err
			}
		}
	}
	return nil
}

// yValue picks the plotted quantity: figures labelled NRMSE plot the
// normalized error (Figures 1–2), "bit mean" figures plot the mean
// estimated value itself (Figure 4b), and the rest plot the raw RMSE
// (Figures 3–4).
func yValue(ylabel string, p Point) float64 {
	switch {
	case strings.Contains(ylabel, "NRMSE"):
		return p.Summary.NRMSE
	case strings.Contains(ylabel, "bit mean"):
		return p.Summary.Truth + p.Summary.Bias
	default:
		return p.Summary.RMSE
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
