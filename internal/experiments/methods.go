// Package experiments regenerates the paper's evaluation (Figures 1–4 and
// the ablations DESIGN.md calls out). Each figure is a registered
// experiment producing series of (x, error-summary) points; cmd/fedbench
// renders them as tables and CSV, and the repository-root benchmarks run
// reduced-repetition versions of the same code.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dither"
	"repro/internal/frand"
	"repro/internal/ldp"
)

// Method estimates a population mean from encoded b-bit client values,
// adapting every estimator in the repository to one evaluation interface.
type Method interface {
	// Name labels the series in figure output.
	Name() string
	// EstimateMean runs one full estimation over the population.
	EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error)
}

// ScratchMethod is a Method that can run allocation-lean by reusing the
// executing worker's core.Scratch. The engine prefers EstimateMeanInto when
// a method implements it; both entry points must consume the identical RNG
// stream and produce the identical estimate.
type ScratchMethod interface {
	Method
	EstimateMeanInto(values []uint64, bits int, r *frand.RNG, s *core.Scratch) (float64, error)
}

// rrFor builds the optional randomized-response layer for a method.
func rrFor(eps float64) (*ldp.RandomizedResponse, error) {
	if eps == 0 {
		return nil, nil
	}
	return ldp.NewRandomizedResponse(eps)
}

// toFloats decodes encoded values for the baselines that consume reals.
func toFloats(values []uint64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = float64(v)
	}
	return out
}

// Weighted is the paper's single-round "weighted" method: one round of
// bit-pushing with p_j ∝ 2^{γj}. Eps > 0 adds randomized response;
// SquashMultiple > 0 squashes bit means below that multiple of the
// expected DP noise.
type Weighted struct {
	Gamma          float64
	Eps            float64
	SquashMultiple float64
}

// Name implements Method.
func (m Weighted) Name() string {
	n := fmt.Sprintf("weighted(γ=%g)", m.Gamma)
	if m.SquashMultiple > 0 {
		n += "+squash"
	}
	return n
}

// EstimateMean implements Method.
func (m Weighted) EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error) {
	probs, err := core.GeometricProbs(bits, m.Gamma)
	if err != nil {
		return 0, err
	}
	rr, err := rrFor(m.Eps)
	if err != nil {
		return 0, err
	}
	cfg := core.Config{Bits: bits, Probs: probs, RR: rr, SquashMultiple: m.SquashMultiple}
	res, err := core.Run(cfg, values, r)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// EstimateMeanInto implements ScratchMethod: the same round through
// core.RunInto and the Scratch's geometric-probs cache.
func (m Weighted) EstimateMeanInto(values []uint64, bits int, r *frand.RNG, s *core.Scratch) (float64, error) {
	probs, err := s.GeometricProbs(bits, m.Gamma)
	if err != nil {
		return 0, err
	}
	rr, err := rrFor(m.Eps)
	if err != nil {
		return 0, err
	}
	cfg := core.Config{Bits: bits, Probs: probs, RR: rr, SquashMultiple: m.SquashMultiple}
	res, err := core.RunInto(cfg, values, r, s)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// Adaptive is the two-round adaptive bit-pushing method (Algorithm 2).
type Adaptive struct {
	Alpha          float64 // round-2 exponent; 0 means the 0.5 default
	Eps            float64
	SquashMultiple float64
	NoCache        bool
}

// Name implements Method.
func (m Adaptive) Name() string {
	alpha := m.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	n := fmt.Sprintf("adaptive(α=%g)", alpha)
	if m.SquashMultiple > 0 {
		n += "+squash"
	}
	if m.NoCache {
		n += "-nocache"
	}
	return n
}

// EstimateMean implements Method.
func (m Adaptive) EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error) {
	rr, err := rrFor(m.Eps)
	if err != nil {
		return 0, err
	}
	cfg := core.AdaptiveConfig{
		Bits: bits, Alpha: m.Alpha, RR: rr,
		NoCache: m.NoCache, SquashMultiple: m.SquashMultiple,
	}
	res, err := core.RunAdaptive(cfg, values, r)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// EstimateMeanInto implements ScratchMethod via core.RunAdaptiveInto.
func (m Adaptive) EstimateMeanInto(values []uint64, bits int, r *frand.RNG, s *core.Scratch) (float64, error) {
	rr, err := rrFor(m.Eps)
	if err != nil {
		return 0, err
	}
	cfg := core.AdaptiveConfig{
		Bits: bits, Alpha: m.Alpha, RR: rr,
		NoCache: m.NoCache, SquashMultiple: m.SquashMultiple,
	}
	res, err := core.RunAdaptiveInto(cfg, values, r, s)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// Dithering is the subtractive-dithering baseline with the [0, 2^b) bound.
type Dithering struct {
	Eps float64
}

// Name implements Method.
func (m Dithering) Name() string { return "dithering" }

// EstimateMean implements Method.
func (m Dithering) EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error) {
	bound := float64(uint64(1) << uint(bits))
	var d *dither.Dithering
	var err error
	if m.Eps > 0 {
		d, err = dither.NewLDP(bound, m.Eps)
	} else {
		d, err = dither.New(bound)
	}
	if err != nil {
		return 0, err
	}
	return d.EstimateMean(toFloats(values), r), nil
}

// PiecewiseMethod is the Wang et al. piecewise mechanism baseline.
type PiecewiseMethod struct {
	Eps float64
}

// Name implements Method.
func (m PiecewiseMethod) Name() string { return "piecewise" }

// EstimateMean implements Method.
func (m PiecewiseMethod) EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error) {
	p, err := ldp.NewPiecewise(m.Eps, 0, float64(uint64(1)<<uint(bits)))
	if err != nil {
		return 0, err
	}
	return p.EstimateMean(toFloats(values), r), nil
}

// DuchiMethod is the Duchi et al. randomized-rounding baseline.
type DuchiMethod struct {
	Eps float64
}

// Name implements Method.
func (m DuchiMethod) Name() string { return "duchi" }

// EstimateMean implements Method.
func (m DuchiMethod) EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error) {
	d, err := ldp.NewDuchi(m.Eps, 0, float64(uint64(1)<<uint(bits)))
	if err != nil {
		return 0, err
	}
	return d.EstimateMean(toFloats(values), r), nil
}

// LaplaceMethod is the Laplace-mechanism baseline.
type LaplaceMethod struct {
	Eps float64
}

// Name implements Method.
func (m LaplaceMethod) Name() string { return "laplace" }

// EstimateMean implements Method.
func (m LaplaceMethod) EstimateMean(values []uint64, bits int, r *frand.RNG) (float64, error) {
	l, err := ldp.NewLaplace(m.Eps, 0, float64(uint64(1)<<uint(bits)))
	if err != nil {
		return 0, err
	}
	return l.EstimateMean(toFloats(values), r), nil
}

// VarEstimator is the variance analogue of Method, for Figures 1b and 2b.
// EstimateVariance receives the executing worker's core.Scratch, which an
// estimator may reuse or ignore.
type VarEstimator interface {
	Name() string
	EstimateVariance(values []uint64, bits int, r *frand.RNG, s *core.Scratch) (float64, error)
}

// BPVariance estimates variance via bit-pushing (Lemma 3.5). A zero
// SingleRoundGamma uses the two-round adaptive inner protocol.
type BPVariance struct {
	Method           core.VarianceMethod
	SingleRoundGamma float64
	Eps              float64
}

// Name implements VarEstimator.
func (m BPVariance) Name() string {
	if m.SingleRoundGamma > 0 {
		return fmt.Sprintf("weighted(γ=%g)", m.SingleRoundGamma)
	}
	return "adaptive"
}

// EstimateVariance implements VarEstimator via core.EstimateVarianceInto.
func (m BPVariance) EstimateVariance(values []uint64, bits int, r *frand.RNG, s *core.Scratch) (float64, error) {
	rr, err := rrFor(m.Eps)
	if err != nil {
		return 0, err
	}
	return core.EstimateVarianceInto(core.VarianceConfig{
		Bits:             bits,
		Method:           m.Method,
		SingleRoundGamma: m.SingleRoundGamma,
		Adaptive:         core.AdaptiveConfig{RR: rr},
	}, values, r, s)
}

// DitherVariance is the dithering baseline applied to variance estimation.
type DitherVariance struct {
	Eps float64
}

// Name implements VarEstimator.
func (m DitherVariance) Name() string { return "dithering" }

// EstimateVariance implements VarEstimator; it has no use for the Scratch.
func (m DitherVariance) EstimateVariance(values []uint64, bits int, r *frand.RNG, _ *core.Scratch) (float64, error) {
	bound := float64(uint64(1) << uint(bits))
	var d *dither.Dithering
	var err error
	if m.Eps > 0 {
		d, err = dither.NewLDP(bound, m.Eps)
	} else {
		d, err = dither.New(bound)
	}
	if err != nil {
		return 0, err
	}
	return d.EstimateVariance(toFloats(values), r), nil
}
