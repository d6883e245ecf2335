package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, 0 < p <= 100;
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// tolerance keeps a product such as 99.9% of 10000 from rounding up past
// its whole value.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder holds the percentiles a tail latency is reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of the n samples beyond it, so the reported tail rests on more
// than a handful of outliers. ok is false when even the median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
