package core

import (
	"fmt"
	"math"

	"repro/internal/frand"
)

// VarianceMethod selects which decomposition of §3.4 (Lemma 3.5) estimates
// the population variance.
type VarianceMethod int

const (
	// CenteredVariance estimates V[X] = E[(X - E[X])^2]: a first phase
	// estimates the mean, then the remaining clients bit-push their
	// squared deviations from it. Lemma 3.5 shows its estimation variance
	// is proportional to (σ² + x̄²/n)²/n — the recommended form.
	CenteredVariance VarianceMethod = iota
	// MomentVariance estimates V[X] = E[X²] - (E[X])² by bit-pushing the
	// values and their squares on disjoint halves of the population. Its
	// estimation variance is proportional to (σ² + x̄²)²/n, worse when the
	// mean is large relative to the spread.
	MomentVariance
)

// String implements fmt.Stringer.
func (m VarianceMethod) String() string {
	switch m {
	case CenteredVariance:
		return "centered"
	case MomentVariance:
		return "moment"
	default:
		return fmt.Sprintf("VarianceMethod(%d)", int(m))
	}
}

// VarianceConfig parametrizes bit-pushing variance estimation. The
// underlying mean estimations reuse the adaptive protocol, which is what
// the paper's Figures 1b and 2b evaluate.
type VarianceConfig struct {
	// Bits is the bit depth of the raw values; squared quantities use
	// 2*Bits (capped at the representable maximum).
	Bits int
	// Method selects the Lemma 3.5 decomposition. The zero value is
	// CenteredVariance.
	Method VarianceMethod
	// MeanFraction is the fraction of clients used to estimate the mean
	// (centered) or the first moment (moment-based). Zero means 1/2.
	MeanFraction float64
	// Adaptive carries the protocol knobs shared with mean estimation.
	// Its Bits field is ignored; this config's bit depths are used.
	Adaptive AdaptiveConfig
	// SingleRoundGamma, when positive, replaces the two-round adaptive
	// inner protocol with the single-round weighted one (p_j ∝ 2^{γj}),
	// so the evaluation can compare the paper's "weighted" method on
	// variance estimation (Figures 1b, 2b).
	SingleRoundGamma float64
}

// runMean executes the configured inner mean-estimation protocol at the
// given bit depth.
func (c *VarianceConfig) runMean(bits int, values []uint64, r *frand.RNG) (float64, error) {
	if c.SingleRoundGamma > 0 {
		probs, err := GeometricProbs(bits, c.SingleRoundGamma)
		if err != nil {
			return 0, err
		}
		res, err := Run(c.singleRound(bits, probs), values, r)
		if err != nil {
			return 0, err
		}
		return res.Estimate, nil
	}
	acfg := c.Adaptive
	acfg.Bits = bits
	res, err := RunAdaptive(acfg, values, r)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// runMeanInto is runMean through RunInto and RunAdaptiveInto on s: the
// same draws and the same estimate.
func (c *VarianceConfig) runMeanInto(bits int, values []uint64, r *frand.RNG, s *Scratch) (float64, error) {
	var res *Result
	var err error
	if c.SingleRoundGamma > 0 {
		var probs []float64
		if probs, err = s.GeometricProbs(bits, c.SingleRoundGamma); err != nil {
			return 0, err
		}
		res, err = RunInto(c.singleRound(bits, probs), values, r, s)
	} else {
		acfg := c.Adaptive
		acfg.Bits = bits
		res, err = RunAdaptiveInto(acfg, values, r, s)
	}
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// singleRound is the weighted single-round protocol runMean runs when
// SingleRoundGamma is set.
func (c *VarianceConfig) singleRound(bits int, probs []float64) Config {
	return Config{
		Bits:            bits,
		Probs:           probs,
		RR:              c.Adaptive.RR,
		Randomness:      c.Adaptive.Randomness,
		SquashThreshold: c.Adaptive.SquashThreshold,
	}
}

func (c *VarianceConfig) meanFraction() float64 {
	if c.MeanFraction == 0 {
		return 0.5
	}
	return c.MeanFraction
}

// squaredBits returns the bit depth used for squared quantities.
func (c *VarianceConfig) squaredBits() int {
	sb := 2 * c.Bits
	if sb > maxBits {
		sb = maxBits
	}
	return sb
}

// phase1Size validates the configuration for n clients and returns how
// many of them estimate the mean (or first moment) in phase 1.
func (c *VarianceConfig) phase1Size(n int) (int, error) {
	if err := checkBits(c.Bits); err != nil {
		return 0, err
	}
	if f := c.meanFraction(); !(f > 0 && f < 1) {
		return 0, fmt.Errorf("%w: MeanFraction=%v", ErrInput, c.MeanFraction)
	}
	if n < 4 {
		return 0, fmt.Errorf("%w: variance estimation needs at least 4 clients, got %d", ErrInput, n)
	}
	n1 := int(math.Round(c.meanFraction() * float64(n)))
	if n1 < 2 {
		n1 = 2
	}
	if n1 > n-2 {
		n1 = n - 2
	}
	return n1, nil
}

// splitPhases deals values into phase1 and phase2 in the order of perm.
func splitPhases(values []uint64, perm []int, phase1, phase2 []uint64) {
	n1 := len(phase1)
	for i, idx := range perm {
		if i < n1 {
			phase1[i] = values[idx]
		} else {
			phase2[i-n1] = values[idx]
		}
	}
}

// fromPhases runs the Lemma 3.5 decomposition over the two disjoint
// phases, estimating each inner mean with mean. phase2 is overwritten with
// the squared quantities its clients bit-push.
func (c *VarianceConfig) fromPhases(phase1, phase2 []uint64, mean func(bits int, values []uint64) (float64, error)) (float64, error) {
	sb := c.squaredBits()
	switch c.Method {
	case MomentVariance:
		// E[X] from phase 1 at depth b; E[X²] from phase 2 at depth 2b.
		m, err := mean(c.Bits, phase1)
		if err != nil {
			return 0, err
		}
		for i, v := range phase2 {
			phase2[i] = squareCapped(v, sb)
		}
		meanSq, err := mean(sb, phase2)
		if err != nil {
			return 0, err
		}
		return meanSq - m*m, nil

	case CenteredVariance:
		// Phase 1 estimates the mean; phase 2 bit-pushes squared
		// deviations from that broadcast estimate.
		mu, err := mean(c.Bits, phase1)
		if err != nil {
			return 0, err
		}
		for i, v := range phase2 {
			d := float64(v) - mu
			phase2[i] = clampToBits(d*d, sb)
		}
		return mean(sb, phase2)

	default:
		return 0, fmt.Errorf("%w: unknown variance method %d", ErrInput, c.Method)
	}
}

// EstimateVariance estimates the population variance of the encoded values
// with at most one transmitted bit per client: each client participates in
// exactly one of the two phases.
func EstimateVariance(cfg VarianceConfig, values []uint64, r *frand.RNG) (float64, error) {
	n1, err := cfg.phase1Size(len(values))
	if err != nil {
		return 0, err
	}
	n := len(values)
	phase1 := make([]uint64, n1)
	phase2 := make([]uint64, n-n1)
	splitPhases(values, r.Perm(n), phase1, phase2)
	return cfg.fromPhases(phase1, phase2, func(bits int, values []uint64) (float64, error) {
		return cfg.runMean(bits, values, r)
	})
}

// EstimateVarianceInto is EstimateVariance reusing the Scratch's buffers:
// the same estimate from the same RNG stream. The phase split keeps its
// own buffers, apart from the ones RunAdaptiveInto splits its rounds
// into, and the inner mean estimations run through RunInto and
// RunAdaptiveInto, so once s is warm the only allocations left are the
// adaptive protocol's learned round-2 probabilities.
func EstimateVarianceInto(cfg VarianceConfig, values []uint64, r *frand.RNG, s *Scratch) (float64, error) {
	n1, err := cfg.phase1Size(len(values))
	if err != nil {
		return 0, err
	}
	n := len(values)
	s.varPerm = resizeInts(s.varPerm, n)
	r.PermInto(s.varPerm)
	s.phase1 = resizeU(s.phase1, n1)
	s.phase2 = resizeU(s.phase2, n-n1)
	splitPhases(values, s.varPerm, s.phase1, s.phase2)
	return cfg.fromPhases(s.phase1, s.phase2, func(bits int, values []uint64) (float64, error) {
		return cfg.runMeanInto(bits, values, r, s)
	})
}

// squareCapped squares v, clipping to the given bit depth.
func squareCapped(v uint64, bits int) uint64 {
	max := uint64(1)<<uint(bits) - 1
	if v > 0 && v > max/v {
		return max
	}
	sq := v * v
	if sq > max {
		return max
	}
	return sq
}

// clampToBits rounds a non-negative float into [0, 2^bits - 1].
func clampToBits(x float64, bits int) uint64 {
	if math.IsNaN(x) || x <= 0 {
		return 0
	}
	max := float64(uint64(1)<<uint(bits) - 1)
	r := math.Round(x)
	if r >= max {
		return uint64(max)
	}
	return uint64(r)
}
