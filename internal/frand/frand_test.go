package frand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: generators with same seed diverged: %d vs %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("generators with different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeats within 100 draws: %d unique", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over a small modulus.
	r := New(5)
	const n, buckets = 300000, 7
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from expected %.0f", b, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(1 << 16); v >= 1<<16 {
			t.Fatalf("Uint64n(2^16) = %d out of range", v)
		}
	}
}

// refUint64n is Uint64n as it was before the nearly-divisionless form:
// the threshold division runs on every call and the 128-bit product comes
// from the portable mul64 below, independent of math/bits. The optimized
// Uint64n must make the same accept/reject decisions and so consume the
// same draws.
func refUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		hi, lo := mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// refShuffleInts is ShuffleInts drawing through refUint64n.
func refShuffleInts(r *RNG, p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := int(refUint64n(r, uint64(i+1)))
		p[i], p[j] = p[j], p[i]
	}
}

// TestUint64nMatchesReference pins Uint64n draw for draw to the
// divide-every-draw reference, including the RNG state it leaves behind.
// The large bounds reject often (2^63+1 rejects almost half of all
// draws), so the rejection loop is exercised as well as the fast accept.
func TestUint64nMatchesReference(t *testing.T) {
	bounds := []uint64{1, 2, 3, 7, 10001, 1<<32 + 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	pick := New(77)
	for i := 0; i < 16; i++ {
		bounds = append(bounds, pick.Uint64()>>uint(pick.Uint64()%64)|1)
	}
	for _, seed := range []uint64{0, 1, 2, 42, 0xdeadbeef} {
		for _, n := range bounds {
			got, want := New(seed), New(seed)
			for k := 0; k < 2000; k++ {
				g, w := got.Uint64n(n), refUint64n(want, n)
				if g != w {
					t.Fatalf("seed %d, n %d, draw %d: Uint64n = %d, reference %d", seed, n, k, g, w)
				}
			}
			if *got != *want {
				t.Fatalf("seed %d, n %d: RNG state differs from the reference's after 2000 draws", seed, n)
			}
		}
	}
}

// TestShuffleMatchesReference checks that PermInto and ShuffleInts, whose
// Fisher-Yates loop draws a fresh bound per element, shuffle exactly as
// the reference does.
func TestShuffleMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 9, 12345} {
		for _, n := range []int{0, 1, 2, 17, 1000, 4097} {
			got, want := New(seed), New(seed)
			p := make([]int, n)
			got.PermInto(p)
			q := make([]int, n)
			for i := range q {
				q[i] = i
			}
			refShuffleInts(want, q)
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("seed %d, n %d: PermInto[%d] = %d, reference %d", seed, n, i, p[i], q[i])
				}
			}
			got.ShuffleInts(p)
			refShuffleInts(want, q)
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("seed %d, n %d: ShuffleInts[%d] = %d, reference %d", seed, n, i, p[i], q[i])
				}
			}
			if *got != *want {
				t.Fatalf("seed %d, n %d: RNG state differs from the reference's", seed, n)
			}
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64MatchesBigProperty(t *testing.T) {
	f := func(x, y uint32) bool {
		// For 32-bit inputs the product fits in 64 bits: hi must be 0 and
		// lo must equal the native product.
		hi, lo := mul64(uint64(x), uint64(y))
		return hi == 0 && lo == uint64(x)*uint64(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(13)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency %v", p, got)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(variance-9) > 0.2 {
		t.Errorf("normal variance = %v, want ~9", variance)
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Exponential(4)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-4) > 0.1 {
		t.Errorf("exponential mean = %v, want ~4", mean)
	}
	if math.Abs(variance-16) > 1 {
		t.Errorf("exponential variance = %v, want ~16", variance)
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(23)
	const n = 300000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Laplace(2, 1.5)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("laplace mean = %v, want ~2", mean)
	}
	// Var of Laplace(mu, b) is 2b^2 = 4.5.
	if math.Abs(variance-4.5) > 0.25 {
		t.Errorf("laplace variance = %v, want ~4.5", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	const p, n = 0.3, 200000
	sum := 0
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatalf("negative geometric draw %d", g)
		}
		sum += g
	}
	mean := float64(sum) / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricP1(t *testing.T) {
	r := New(1)
	for i := 0; i < 10; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(37)
	const n, reps = 5, 50000
	counts := make([]int, n)
	for i := 0; i < reps; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(reps) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("position value %d appeared %d times, expected ~%.0f", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(41)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := New(43)
	z := NewZipf(r, 1.5, 1, 1000)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v > 1000 {
			t.Fatalf("zipf draw %d out of range", v)
		}
		counts[v]++
	}
	// Zipf must be heavily skewed toward 0.
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Errorf("zipf counts not monotone-ish: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	if float64(counts[0])/n < 0.2 {
		t.Errorf("zipf mass at 0 = %v, expected heavy head", float64(counts[0])/n)
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	r := New(1)
	for _, c := range []struct {
		s, v float64
		max  uint64
	}{{1, 1, 10}, {2, 0.5, 10}, {2, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%v,%v,%d) did not panic", c.s, c.v, c.max)
				}
			}()
			NewZipf(r, c.s, c.v, c.max)
		}()
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := New(47)
	n := 10
	calls := 0
	r.Shuffle(n, func(i, j int) {
		if i < 0 || j < 0 || i >= n || j > i {
			t.Fatalf("bad swap indices i=%d j=%d", i, j)
		}
		calls++
	})
	if calls != n-1 {
		t.Fatalf("Shuffle made %d swap calls, want %d", calls, n-1)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
