// Package frand provides a deterministic, seedable pseudo-random number
// generator with the distribution draws needed by the federated aggregation
// protocols and their evaluation harness.
//
// Every randomized component in this repository takes an explicit *RNG so
// that protocol runs and experiments are reproducible bit-for-bit. The
// generator is xoshiro256** seeded through SplitMix64, following the
// reference constructions of Blackman and Vigna. frand is NOT a
// cryptographic generator; the secure-aggregation substrate documents where
// a deployment must substitute a CSPRNG.
package frand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; derive per-goroutine streams with Split.
type RNG struct {
	s0, s1, s2, s3 uint64
	// cached second output of the polar Box-Muller transform.
	normCached bool
	normValue  float64
}

// New returns an RNG seeded from the given seed. Distinct seeds yield
// independent-looking streams; the all-zero internal state is unreachable
// because SplitMix64 never emits four zero words for any seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	return r
}

// splitmix64 advances the SplitMix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Split derives a new, statistically independent RNG from this one,
// advancing this generator. Use it to hand separate streams to parallel
// workers while keeping the parent reproducible.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SplitN derives n independent RNGs, equivalent to calling Split n times.
// Parallel engines pre-split one stream per work cell before spawning
// workers, so cell i's stream is a pure function of (seed, i) and results
// are identical at any worker count.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("frand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("frand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire multiply-shift with rejection: accept when the low half of the
	// 128-bit product clears (2^64 - n) % n, which removes modulo bias.
	// That threshold is below n, so a low half of at least n is accepted
	// without computing it: the division runs on at most n/2^64 of draws.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal draw via the polar Box-Muller
// method, caching the paired output.
func (r *RNG) NormFloat64() float64 {
	if r.normCached {
		r.normCached = false
		return r.normValue
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.normValue = v * f
		r.normCached = true
		return u * f
	}
}

// Normal returns a draw from Normal(mu, sigma).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// ExpFloat64 returns an exponential draw with rate 1 (mean 1) via inverse
// transform sampling.
func (r *RNG) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], avoiding log(0).
	return -math.Log(1 - r.Float64())
}

// Exponential returns an exponential draw with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Laplace returns a draw from the Laplace distribution with location mu and
// scale b, the noise distribution of the classic ε-DP Laplace mechanism.
func (r *RNG) Laplace(mu, b float64) float64 {
	u := r.Float64() - 0.5
	if u < 0 {
		return mu + b*math.Log(1+2*u)
	}
	return mu - b*math.Log(1-2*u)
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials, drawn by inversion. It panics if p is outside (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("frand: Geometric probability out of (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := 1 - r.Float64() // in (0, 1]
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// consuming exactly the draws Perm(len(p)) would. It lets hot loops reuse a
// caller-owned buffer.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
