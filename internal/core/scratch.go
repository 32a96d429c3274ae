package core

import (
	"fmt"
	"math"

	"repro/internal/frand"
)

// Scratch holds the reusable buffers behind the allocation-lean protocol
// variants (MakeReportsInto, RunInto, RunAdaptiveInto,
// EstimateVarianceInto). A Scratch belongs to exactly one goroutine at a
// time — parallel engines give one to each worker. Results returned by the
// Into variants alias Scratch storage and remain valid only until the next
// call that uses the same Scratch; copy what must outlive the cell.
//
// The Into variants consume the identical RNG stream and perform the
// identical floating-point arithmetic as their allocating counterparts, so
// swapping them in cannot perturb a seeded simulation.
type Scratch struct {
	reports    []Report
	probs      []float64 // once-normalized copy of Config.Probs
	counts     []int
	rems       []allocRem
	cdf        []float64
	assignment []int
	bits       []uint64 // batched randomized-response buffer
	perm       []int
	round1     []uint64
	round2     []uint64
	// EstimateVarianceInto's phase split, kept apart from the adaptive
	// rounds above because its phases are the inputs RunAdaptiveInto
	// splits into them.
	varPerm        []int
	phase1, phase2 []uint64

	res, res1, res2, pooled Result

	// GeometricProbs cache, filled round-robin: sweeps re-run the same few
	// (bits, gamma) shapes in every cell.
	geom     [geomCacheSize]geomEntry
	geomNext int
}

// geomCacheSize is how many GeometricProbs shapes a Scratch keeps. A
// variance cell asks for four: γ = 0.5 and γ = 1, each at the value depth
// and at the doubled depth of the squares.
const geomCacheSize = 4

type geomEntry struct {
	bits  int
	gamma float64
	probs []float64
}

// resizeF returns s with length n, reusing capacity.
func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeU(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeRems(s []allocRem, n int) []allocRem {
	if cap(s) < n {
		return make([]allocRem, n)
	}
	return s[:n]
}

// resetResult sizes res for bits bit positions and zeroes every field.
func resetResult(res *Result, bits int) {
	res.Estimate = 0
	res.Reports = 0
	res.BitMeans = resizeF(res.BitMeans, bits)
	res.Sums = resizeF(res.Sums, bits)
	res.Counts = resizeInts(res.Counts, bits)
	if cap(res.Squashed) < bits {
		res.Squashed = make([]bool, bits)
	} else {
		res.Squashed = res.Squashed[:bits]
	}
	for j := 0; j < bits; j++ {
		res.BitMeans[j] = 0
		res.Sums[j] = 0
		res.Counts[j] = 0
		res.Squashed[j] = false
	}
}

// GeometricProbs caches core.GeometricProbs(bits, gamma); sweeps call it
// with the same few shapes for every repetition. The returned slice aliases
// s and must not be mutated.
func (s *Scratch) GeometricProbs(bits int, gamma float64) ([]float64, error) {
	// The cache key is the exact bit pattern of gamma, not a numeric
	// tolerance: two gammas that differ in any bit produce different
	// probability tables and must not share an entry.
	for i := range s.geom {
		e := &s.geom[i]
		if e.probs != nil && e.bits == bits && math.Float64bits(e.gamma) == math.Float64bits(gamma) {
			return e.probs, nil
		}
	}
	p, err := GeometricProbs(bits, gamma)
	if err != nil {
		return nil, err
	}
	s.geom[s.geomNext] = geomEntry{bits: bits, gamma: gamma, probs: p}
	s.geomNext = (s.geomNext + 1) % geomCacheSize
	return p, nil
}

// MakeReportsInto is MakeReports writing into the Scratch's report slab:
// identical reports, identical RNG consumption, no per-call garbage once
// the buffers are warm. Randomized response is applied as a batched pass
// over each round's fresh reports, which draws the same Bernoulli sequence
// as the per-report application because no other draws interleave.
//
// The returned slice aliases s and is valid until the next use of s.
func MakeReportsInto(cfg Config, values []uint64, r *frand.RNG, s *Scratch) ([]Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(values)
	total, err := checkProbs(cfg.Probs)
	if err != nil {
		return nil, err
	}
	s.probs = resizeF(s.probs, cfg.Bits)
	for j, v := range cfg.Probs {
		s.probs[j] = v / total
	}
	if cap(s.reports) < n*cfg.bsend() {
		s.reports = make([]Report, 0, n*cfg.bsend())
	}
	s.reports = s.reports[:0]
	s.assignment = resizeInts(s.assignment, n)
	for pass := 0; pass < cfg.bsend(); pass++ {
		switch cfg.Randomness {
		case LocalRandomness:
			s.cdf = resizeF(s.cdf, cfg.Bits)
			assignLocalInto(s.assignment, s.cdf, s.probs, r)
		default:
			s.counts = resizeInts(s.counts, cfg.Bits)
			s.rems = resizeRems(s.rems, cfg.Bits)
			if err := allocateInto(s.counts, s.rems, s.probs, n); err != nil {
				return nil, err
			}
			assignInto(s.assignment, s.counts, r)
		}
		if cfg.RR != nil {
			s.bits = resizeU(s.bits, n)
			for i, j := range s.assignment {
				s.bits[i] = (values[i] >> uint(j)) & 1
			}
			cfg.RR.ApplyBatch(s.bits, r)
			for i, j := range s.assignment {
				s.reports = append(s.reports, Report{Bit: j, Value: s.bits[i]})
			}
		} else {
			for i, j := range s.assignment {
				s.reports = append(s.reports, Report{Bit: j, Value: (values[i] >> uint(j)) & 1})
			}
		}
	}
	return s.reports, nil
}

// aggregateInto is the server side of Aggregate writing into a reused
// Result. cfg must already be validated.
func aggregateInto(cfg Config, reports []Report, res *Result) error {
	resetResult(res, cfg.Bits)
	for _, rep := range reports {
		if rep.Bit < 0 || rep.Bit >= cfg.Bits {
			return fmt.Errorf("%w: report for bit %d outside [0,%d)", ErrInput, rep.Bit, cfg.Bits)
		}
		if rep.Value > 1 {
			return fmt.Errorf("%w: report value %d is not a bit", ErrInput, rep.Value)
		}
		res.Sums[rep.Bit] += float64(rep.Value)
		res.Counts[rep.Bit]++
		res.Reports++
	}
	finalize(cfg, res)
	return nil
}

// runInto executes one bit-pushing round into the given Result buffer.
func runInto(cfg Config, values []uint64, r *frand.RNG, s *Scratch, res *Result) error {
	reports, err := MakeReportsInto(cfg, values, r, s)
	if err != nil {
		return err
	}
	return aggregateInto(cfg, reports, res)
}

// RunInto is Run reusing the Scratch's buffers: same estimate, same RNG
// stream, zero steady-state allocations. The returned Result aliases s and
// is valid until the next use of s.
func RunInto(cfg Config, values []uint64, r *frand.RNG, s *Scratch) (*Result, error) {
	if err := runInto(cfg, values, r, s, &s.res); err != nil {
		return nil, err
	}
	return &s.res, nil
}

// poolAdaptiveInto is Pool followed by the PoolAdaptive dead-bit discard,
// writing into a reused Result. cfg must already be validated.
func poolAdaptiveInto(cfg Config, probs2 []float64, pooled *Result, parts ...*Result) error {
	resetResult(pooled, cfg.Bits)
	for _, part := range parts {
		if len(part.Sums) != cfg.Bits || len(part.Counts) != cfg.Bits {
			return fmt.Errorf("%w: pooling result with %d bits into %d", ErrInput, len(part.Sums), cfg.Bits)
		}
		for j := 0; j < cfg.Bits; j++ {
			pooled.Sums[j] += part.Sums[j]
			pooled.Counts[j] += part.Counts[j]
		}
		pooled.Reports += part.Reports
	}
	finalize(cfg, pooled)
	if len(probs2) != cfg.Bits {
		return fmt.Errorf("%w: %d round-2 probabilities for %d bits", ErrProbs, len(probs2), cfg.Bits)
	}
	for j, p := range probs2 {
		if p == 0 {
			pooled.Squashed[j] = true
		}
	}
	recomputeEstimate(pooled)
	return nil
}

// RunAdaptiveInto is RunAdaptive reusing the Scratch's buffers and
// returning only the final pooled Result (the per-round detail of
// AdaptiveResult stays internal to the Scratch). It consumes the identical
// RNG stream as RunAdaptive, so both produce the same estimate from the
// same seed. The returned Result aliases s and is valid until the next use
// of s.
func RunAdaptiveInto(cfg AdaptiveConfig, values []uint64, r *frand.RNG, s *Scratch) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(values)
	if n < 2 {
		return nil, fmt.Errorf("%w: adaptive bit-pushing needs at least 2 clients, got %d", ErrInput, n)
	}
	n1 := int(math.Round(cfg.delta() * float64(n)))
	if n1 < 1 {
		n1 = 1
	}
	if n1 >= n {
		n1 = n - 1
	}
	// Random split of the population into the two rounds.
	s.perm = resizeInts(s.perm, n)
	r.PermInto(s.perm)
	s.round1 = resizeU(s.round1, n1)
	s.round2 = resizeU(s.round2, n-n1)
	for i, idx := range s.perm {
		if i < n1 {
			s.round1[i] = values[idx]
		} else {
			s.round2[i-n1] = values[idx]
		}
	}

	probs1, err := s.GeometricProbs(cfg.Bits, cfg.gamma())
	if err != nil {
		return nil, err
	}
	cfg1 := Config{
		Bits: cfg.Bits, Probs: probs1, RR: cfg.RR,
		Randomness: cfg.Randomness, SquashThreshold: cfg.SquashThreshold,
		SquashMultiple: cfg.SquashMultiple,
	}
	if err := runInto(cfg1, s.round1, r, s, &s.res1); err != nil {
		return nil, err
	}

	var probs2 []float64
	if cfg.RR != nil {
		probs2, err = LearnedProbsDP(&s.res1)
	} else {
		probs2, err = LearnedProbs(&s.res1, cfg.alpha())
	}
	if err != nil {
		return nil, err
	}
	cfg2 := cfg1
	cfg2.Probs = probs2
	if err := runInto(cfg2, s.round2, r, s, &s.res2); err != nil {
		return nil, err
	}
	if cfg.NoCache {
		return &s.res2, nil
	}
	if err := poolAdaptiveInto(cfg1, probs2, &s.pooled, &s.res1, &s.res2); err != nil {
		return nil, err
	}
	return &s.pooled, nil
}
