package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// xs. It returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(q / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tailOK reports whether the q-th percentile of n samples has at least
// ten samples beyond it, the rule for which tail percentile a timing
// may report.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q/100) >= 10
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the q-th percentile of samples in the order they were taken,
// made steady: the samples are cut into consecutive stretches just long
// enough to leave ten samples beyond the percentile (1000 for p99, 100
// for p90), and the median of the stretches' percentiles is returned.
// One stall then sets the tail of its own stretch, not of the run.
// Fewer samples than one stretch give the plain percentile.
func tail(xs []float64, q float64) float64 {
	stretch := int(math.Ceil(10/(1-q/100) - 1e-9))
	k := len(xs) / stretch
	if k <= 1 {
		return percentile(xs, q)
	}
	ps := make([]float64, k)
	for i := range ps {
		ps[i] = percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(ps)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (no attempts, so nothing wasted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
