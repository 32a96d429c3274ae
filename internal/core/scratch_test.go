package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/frand"
	"repro/internal/ldp"
)

func scratchTestValues(n, bits int) []uint64 {
	r := frand.New(99)
	values := make([]uint64, n)
	for i := range values {
		values[i] = r.Uint64n(1 << uint(bits))
	}
	return values
}

func scratchConfigs(t *testing.T, bits int) map[string]Config {
	t.Helper()
	probs, err := GeometricProbs(bits, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ldp.NewRandomizedResponse(2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"plain": {Bits: bits, Probs: probs},
		"rr":    {Bits: bits, Probs: probs, RR: rr, SquashMultiple: 2},
		"bsend": {Bits: bits, Probs: probs, BSend: 3},
		"local": {Bits: bits, Probs: probs, Randomness: LocalRandomness},
		"rrlocal": {
			Bits: bits, Probs: probs, RR: rr, Randomness: LocalRandomness,
		},
	}
}

// TestMakeReportsIntoMatchesMakeReports locks the stream-compatibility
// contract: the Into variant emits identical reports and leaves the RNG in
// an identical state, for every configuration shape.
func TestMakeReportsIntoMatchesMakeReports(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	for name, cfg := range scratchConfigs(t, bits) {
		t.Run(name, func(t *testing.T) {
			r1 := frand.New(7)
			r2 := frand.New(7)
			want, err := MakeReports(cfg, values, r1)
			if err != nil {
				t.Fatal(err)
			}
			var s Scratch
			got, err := MakeReportsInto(cfg, values, r2, &s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Error("reports differ between MakeReports and MakeReportsInto")
			}
			if r1.Uint64() != r2.Uint64() {
				t.Error("RNG streams diverged")
			}
		})
	}
}

// TestRunIntoMatchesRun checks full-round equivalence including the
// aggregated result and repeated reuse of one Scratch.
func TestRunIntoMatchesRun(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	for name, cfg := range scratchConfigs(t, bits) {
		t.Run(name, func(t *testing.T) {
			var s Scratch
			for trial := uint64(0); trial < 3; trial++ {
				r1 := frand.New(100 + trial)
				r2 := frand.New(100 + trial)
				want, err := Run(cfg, values, r1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunInto(cfg, values, r2, &s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("trial %d: results differ between Run and RunInto", trial)
				}
			}
		})
	}
}

// TestRunAdaptiveIntoMatchesRunAdaptive checks the two-round protocol, with
// and without DP and caching.
func TestRunAdaptiveIntoMatchesRunAdaptive(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	rr, err := ldp.NewRandomizedResponse(2)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]AdaptiveConfig{
		"plain":   {Bits: bits},
		"rr":      {Bits: bits, RR: rr, SquashMultiple: 2},
		"nocache": {Bits: bits, NoCache: true},
		"local":   {Bits: bits, Randomness: LocalRandomness},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			var s Scratch
			for trial := uint64(0); trial < 3; trial++ {
				r1 := frand.New(200 + trial)
				r2 := frand.New(200 + trial)
				want, err := RunAdaptive(cfg, values, r1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunAdaptiveInto(cfg, values, r2, &s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Result, *got) {
					t.Errorf("trial %d: RunAdaptiveInto differs from RunAdaptive's final Result", trial)
				}
				if r1.Uint64() != r2.Uint64() {
					t.Errorf("trial %d: RNG streams diverged", trial)
				}
			}
		})
	}
}

// TestRunIntoAllocationFree is the perf regression guard: once a Scratch is
// warm, a full round allocates nothing.
func TestRunIntoAllocationFree(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	for name, cfg := range scratchConfigs(t, bits) {
		t.Run(name, func(t *testing.T) {
			var s Scratch
			r := frand.New(5)
			if _, err := RunInto(cfg, values, r, &s); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := RunInto(cfg, values, r, &s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("RunInto allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// TestRunAdaptiveIntoAllocationBound guards the adaptive path. LearnedProbs
// intentionally returns fresh probability vectors (they are part of the
// protocol transcript), so the bound is a small constant rather than zero.
func TestRunAdaptiveIntoAllocationBound(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	cfg := AdaptiveConfig{Bits: bits}
	var s Scratch
	r := frand.New(5)
	if _, err := RunAdaptiveInto(cfg, values, r, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunAdaptiveInto(cfg, values, r, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("RunAdaptiveInto allocates %.1f objects per run, want <= 8", allocs)
	}
}

// varianceConfigs covers both Lemma 3.5 decompositions, each with the
// adaptive and the single-round inner protocol, with and without ε = 1
// randomized response.
func varianceConfigs(t *testing.T, bits int) map[string]VarianceConfig {
	t.Helper()
	rr, err := ldp.NewRandomizedResponse(1)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]VarianceConfig{}
	for _, method := range []VarianceMethod{CenteredVariance, MomentVariance} {
		for _, gamma := range []float64{0, 0.5} {
			for _, eps := range []float64{0, 1} {
				cfg := VarianceConfig{Bits: bits, Method: method, SingleRoundGamma: gamma}
				name := fmt.Sprintf("%v/gamma=%g/eps=%g", method, gamma, eps)
				if eps > 0 {
					cfg.Adaptive.RR = rr
				}
				out[name] = cfg
			}
		}
	}
	return out
}

// TestEstimateVarianceIntoMatchesEstimateVariance checks bit-for-bit
// equality of the estimate and of the RNG state left behind. Every
// configuration runs on one Scratch, with RunInto and RunAdaptiveInto
// calls between the variance estimates, so a phase buffer shared with the
// inner protocols would corrupt a later estimate.
func TestEstimateVarianceIntoMatchesEstimateVariance(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	cfgs := varianceConfigs(t, bits)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	mean := scratchConfigs(t, bits)["rr"]
	var s Scratch
	for trial := uint64(0); trial < 2; trial++ {
		for k, name := range names {
			cfg := cfgs[name]
			seed := 300 + 100*trial + uint64(k)
			r1, r2 := frand.New(seed), frand.New(seed)
			want, err := EstimateVariance(cfg, values, r1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimateVarianceInto(cfg, values, r2, &s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s trial %d: EstimateVarianceInto = %v, EstimateVariance = %v", name, trial, got, want)
			}
			if *r1 != *r2 {
				t.Errorf("%s trial %d: RNG streams diverged", name, trial)
			}
			// Interleave the inner protocols on the same Scratch.
			if _, err := RunInto(mean, values[:n/2], r2, &s); err != nil {
				t.Fatal(err)
			}
			if _, err := RunAdaptiveInto(AdaptiveConfig{Bits: bits}, values[n/3:], r2, &s); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEstimateVarianceIntoValidation checks the Into variant rejects what
// EstimateVariance rejects.
func TestEstimateVarianceIntoValidation(t *testing.T) {
	values := []uint64{1, 2, 3, 4, 5}
	var s Scratch
	cases := []struct {
		cfg    VarianceConfig
		values []uint64
		want   error
	}{
		{VarianceConfig{Bits: 0}, values, ErrBits},
		{VarianceConfig{Bits: 8, MeanFraction: 1.5}, values, ErrInput},
		{VarianceConfig{Bits: 8}, values[:3], ErrInput},
		{VarianceConfig{Bits: 8, Method: VarianceMethod(9)}, values, ErrInput},
	}
	for _, c := range cases {
		if _, err := EstimateVarianceInto(c.cfg, c.values, frand.New(1), &s); !errors.Is(err, c.want) {
			t.Errorf("%+v: err = %v, want %v", c.cfg, err, c.want)
		}
	}
}

// TestEstimateVarianceIntoAllocationBound guards the variance path. The
// single-round inner protocol allocates nothing once the Scratch is warm;
// each adaptive inner run keeps RunAdaptiveInto's allowance for its
// learned round-2 probabilities, and a variance estimate runs two.
func TestEstimateVarianceIntoAllocationBound(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	for _, c := range []struct {
		gamma float64
		max   float64
	}{{0.5, 0}, {0, 16}} {
		for _, method := range []VarianceMethod{CenteredVariance, MomentVariance} {
			cfg := VarianceConfig{Bits: bits, Method: method, SingleRoundGamma: c.gamma}
			var s Scratch
			r := frand.New(5)
			if _, err := EstimateVarianceInto(cfg, values, r, &s); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := EstimateVarianceInto(cfg, values, r, &s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.max {
				t.Errorf("%v, gamma %g: EstimateVarianceInto allocates %.1f objects per run, want <= %g", method, c.gamma, allocs, c.max)
			}
		}
	}
}

// TestGeometricProbsCache checks that the cache answers every shape with
// GeometricProbs' table, also after entries were evicted.
func TestGeometricProbsCache(t *testing.T) {
	var s Scratch
	shapes := []struct {
		bits  int
		gamma float64
	}{{10, 0.5}, {20, 0.5}, {10, 1}, {20, 1}, {12, 0.25}, {10, 0.5}, {20, 1}}
	for round := 0; round < 3; round++ {
		for _, sh := range shapes {
			got, err := s.GeometricProbs(sh.bits, sh.gamma)
			if err != nil {
				t.Fatal(err)
			}
			want, err := GeometricProbs(sh.bits, sh.gamma)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GeometricProbs(%d, %g) from the cache differs", sh.bits, sh.gamma)
			}
		}
	}
	if _, err := s.GeometricProbs(0, 0.5); !errors.Is(err, ErrBits) {
		t.Errorf("bits=0 err = %v", err)
	}
}

// TestMakeReportsIntoAllocationFree guards the client-side path on its own.
func TestMakeReportsIntoAllocationFree(t *testing.T) {
	const bits, n = 10, 500
	values := scratchTestValues(n, bits)
	cfg := scratchConfigs(t, bits)["rr"]
	var s Scratch
	r := frand.New(5)
	if _, err := MakeReportsInto(cfg, values, r, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := MakeReportsInto(cfg, values, r, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MakeReportsInto allocates %.1f objects per run, want 0", allocs)
	}
}
