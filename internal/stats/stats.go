// Package stats provides the small statistical toolkit used throughout the
// insomnia reproduction: streaming moments, variable-width histograms,
// empirical CDFs, quantiles and time-binned series. Everything is
// deterministic and allocation-conscious; no third-party dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates mean and variance in a single streaming pass using
// Welford's numerically stable recurrence.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 when fewer than two samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the unbiased sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge combines another accumulator into this one (parallel Welford).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the sample. The input slice is not modified.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (0<=q<=1) using nearest-rank.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Values returns the sorted sample (shared slice; treat as read-only).
func (e *ECDF) Values() []float64 { return e.sorted }

// Quantile computes the q-th quantile of sample by nearest rank without
// building an ECDF. The input slice is not modified.
func Quantile(sample []float64, q float64) float64 {
	return NewECDF(sample).Quantile(q)
}

// Mean returns the arithmetic mean of the sample (NaN for empty).
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range sample {
		s += x
	}
	return s / float64(len(sample))
}

// Median returns the 50th percentile by nearest rank.
func Median(sample []float64) float64 { return Quantile(sample, 0.5) }

// TimeSeries accumulates (t, value) observations into fixed-width time bins
// and reports per-bin means. It is the workhorse behind all the "X over the
// day" figures.
//
// The engine samples once per bin, so per-bin counts are usually all 0 or
// 1, and then a bin's mean is its sum: an empty bin's sum is +0, and
// x/1 == x in IEEE 754. The series therefore keeps one bit per bin and
// allocates counts only when some bin receives a second sample.
type TimeSeries struct {
	Start, End float64 // time range covered, seconds
	binWidth   float64
	sum        []float64
	seen       []uint64 // bin i holds a sample; dropped once n exists
	n          []int32  // per-bin sample counts; nil while every bin holds at most one
}

// NewTimeSeries bins [start,end) into nbins equal-width bins.
func NewTimeSeries(start, end float64, nbins int) *TimeSeries {
	if nbins <= 0 || end <= start {
		panic(fmt.Sprintf("stats: invalid time series [%v,%v) bins=%d", start, end, nbins))
	}
	return &TimeSeries{
		Start: start, End: end,
		binWidth: (end - start) / float64(nbins),
		sum:      make([]float64, nbins),
		seen:     make([]uint64, (nbins+63)/64),
	}
}

// Add records value v at time t. Out-of-range samples are dropped.
func (ts *TimeSeries) Add(t, v float64) {
	i := int((t - ts.Start) / ts.binWidth)
	if i < 0 || i >= len(ts.sum) {
		return
	}
	ts.sum[i] += v
	if ts.n != nil {
		ts.n[i]++
		return
	}
	w, b := i/64, uint64(1)<<(i%64)
	if ts.seen[w]&b == 0 {
		ts.seen[w] |= b
		return
	}
	// Bin i's second sample: switch to explicit counts.
	ts.n = make([]int32, len(ts.sum))
	for j := range ts.n {
		if ts.seen[j/64]&(1<<(j%64)) != 0 {
			ts.n[j] = 1
		}
	}
	ts.n[i]++
	ts.seen = nil
}

// Bins returns the number of bins.
func (ts *TimeSeries) Bins() int { return len(ts.sum) }

// BinTime returns the midpoint time of bin i.
func (ts *TimeSeries) BinTime(i int) float64 {
	return ts.Start + (float64(i)+0.5)*ts.binWidth
}

// MeanAt returns the mean of bin i (0 if empty).
func (ts *TimeSeries) MeanAt(i int) float64 {
	if ts.n == nil {
		return ts.sum[i]
	}
	if ts.n[i] == 0 {
		return 0
	}
	return ts.sum[i] / float64(ts.n[i])
}

// Means returns the per-bin means.
func (ts *TimeSeries) Means() []float64 {
	out := make([]float64, len(ts.sum))
	for i := range out {
		out[i] = ts.MeanAt(i)
	}
	return out
}
