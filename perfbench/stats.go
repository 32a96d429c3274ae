package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentileLadder is the fixed set of percentiles a tail is chosen from.
// A percentile is reported only when at least minBeyond samples lie
// beyond it, so the tail never rests on a handful of outliers.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The small slack keeps p·n/100 from rounding up past an exact integer
// (99.9% of 10000 is 9990, not 9991).
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it. ok is false when not even the median
// qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		if beyond(n, percentileLadder[i]) >= minBeyond {
			return percentileLadder[i], true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted, refusing
// one with fewer than minBeyond samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 || beyond(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, n, minBeyond)
	}
	return sorted[rank(n, p)-1], nil
}

// latencySummary is a sample's median and its supported tail.
type latencySummary struct {
	N        int
	Segments int
	P50      float64
	TailP    float64
	Tail     float64
	// SegmentTails are the per-segment tails Tail is read from.
	SegmentTails []float64
}

// latencySegment is the open-loop latency samples per segment. 500
// samples support p90 (50 beyond) but not p99 (5 beyond). The
// fsync-bound latency of fresh-json-retry on a shared virtual disk gave
// segment p99s from 2.5 to 42 ms within one run; p90 is the tail this
// host measures steadily.
const latencySegment = 500

// summarize reads the median and the tail of samples (milliseconds, in
// due order; negative entries are items that were never acked and are
// skipped). The median is over all samples. For the tail the samples are
// cut into consecutive segments of at least segLen, or one segment when
// there are fewer or segLen is 0; each segment's tail is its highest
// supported ladder percentile, and the tail reported is the median over
// segments, so a stall that recurs in most segments raises it.
func summarize(samples []float64, segLen int) (latencySummary, error) {
	valid := make([]float64, 0, len(samples))
	for _, v := range samples {
		if v >= 0 {
			valid = append(valid, v)
		}
	}
	s := latencySummary{N: len(valid), Segments: 1}
	if segLen > 0 {
		s.Segments = max(1, len(valid)/segLen)
	}
	per := len(valid) / s.Segments
	tails := make([]float64, s.Segments)
	for k := range tails {
		seg := append([]float64(nil), valid[k*per:(k+1)*per]...)
		sort.Float64s(seg)
		p, ok := tailPercentile(len(seg))
		if !ok || p < 90 {
			return s, fmt.Errorf("%d latency samples support no tail percentile", len(seg))
		}
		if s.TailP != 0 && p != s.TailP {
			return s, fmt.Errorf("segments support p%g and p%g", s.TailP, p)
		}
		s.TailP = p
		tails[k], _ = percentile(seg, p)
	}
	sort.Float64s(valid)
	s.P50, _ = percentile(valid, 50)
	s.Tail, s.SegmentTails = median(tails), tails
	return s, nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0, for per-layer ratios of layers a
// workload does not touch.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
