// Package stats provides the small statistical toolkit used throughout the
// insomnia reproduction: streaming moments, variable-width histograms,
// empirical CDFs, quantiles and time-binned series, which store a step
// function and so cost their changes rather than their bins. Everything
// is deterministic and allocation-conscious; no third-party dependencies.
package stats

import (
	"fmt"
	"math"
	"math/bits"
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
// A series is stored as a step function: a set of change bins, each
// starting a run of bins that share one mean, plus the open bin's sum and
// count. The engine's series change only when a device wakes or sleeps,
// so a day-long series costs its changes, not one float per bin. A bin's
// mean is the plain one, bit for bit: its sum over its sample count, or +0
// for an empty bin.
//
// Samples must arrive in bin order: Add panics on an in-range sample
// earlier than the open bin, since a closed bin keeps only its mean.
// Reads never mutate, so one series may be read from several goroutines
// once its writer is done.
type TimeSeries struct {
	Start, End float64 // time range covered, seconds
	binWidth   float64
	nbins      int

	chg   []uint64    // bit i: bin i's mean differs bitwise from bin i-1's (bin 0 always)
	rank  []int32     // rank[b]: runs that start before bin b*rankBlock
	runs  [][]float64 // run means in chunks of runChunk; the list is sized up front
	nruns int

	open int     // the open bin: every earlier bin is closed
	sum  float64 // the open bin's sum and sample count
	n    int
	last uint64 // bits of the last closed bin's mean
}

const (
	// rankBlock bins share one rank entry, so MeanAt counts at most
	// rankBlock/64 words of change bits.
	rankBlock = 512
	// runChunk run means are allocated at a time.
	runChunk = 512
)

// NewTimeSeries bins [start,end) into nbins equal-width bins.
func NewTimeSeries(start, end float64, nbins int) *TimeSeries {
	if nbins <= 0 || end <= start {
		panic(fmt.Sprintf("stats: invalid time series [%v,%v) bins=%d", start, end, nbins))
	}
	return &TimeSeries{
		Start: start, End: end,
		binWidth: (end - start) / float64(nbins),
		nbins:    nbins,
		chg:      make([]uint64, (nbins+63)/64),
		rank:     make([]int32, (nbins+rankBlock-1)/rankBlock),
		runs:     make([][]float64, 0, (nbins+runChunk-1)/runChunk),
	}
}

// Add records value v at time t. Out-of-range samples are dropped; an
// in-range sample earlier than the open bin panics.
func (ts *TimeSeries) Add(t, v float64) {
	i := int((t - ts.Start) / ts.binWidth)
	if i < 0 || i >= ts.nbins {
		return
	}
	if i != ts.open {
		if i < ts.open {
			panic(fmt.Sprintf("stats: time series sample at t=%v (bin %d) before open bin %d", t, i, ts.open))
		}
		ts.closeUpTo(i)
	}
	ts.sum += v
	ts.n++
}

// closeUpTo closes the open bin and the empty bins before bin j, which
// becomes the open bin.
func (ts *TimeSeries) closeUpTo(j int) {
	for m := ts.openMean(); ts.open < j; ts.open++ {
		ts.put(ts.open, m)
		m = 0
	}
	ts.sum, ts.n = 0, 0
}

// put closes bin i with mean m, starting a run unless m's bits equal the
// previous bin's.
func (ts *TimeSeries) put(i int, m float64) {
	if i%rankBlock == 0 {
		ts.rank[i/rankBlock] = int32(ts.nruns)
	}
	b := math.Float64bits(m)
	if b == ts.last && i > 0 {
		return
	}
	ts.last = b
	ts.chg[i/64] |= 1 << (i % 64)
	if ts.nruns%runChunk == 0 {
		// Runs never outnumber bins, so the last chunk needs only the rest.
		ts.runs = append(ts.runs, make([]float64, min(runChunk, ts.nbins-ts.nruns)))
	}
	ts.runs[ts.nruns/runChunk][ts.nruns%runChunk] = m
	ts.nruns++
}

// run returns the mean of run r.
func (ts *TimeSeries) run(r int) float64 { return ts.runs[r/runChunk][r%runChunk] }

// openMean returns the open bin's mean.
func (ts *TimeSeries) openMean() float64 {
	if ts.n == 0 {
		return 0
	}
	return ts.sum / float64(ts.n)
}

// Bins returns the number of bins.
func (ts *TimeSeries) Bins() int { return ts.nbins }

// BinTime returns the midpoint time of bin i.
func (ts *TimeSeries) BinTime(i int) float64 {
	return ts.Start + (float64(i)+0.5)*ts.binWidth
}

// MeanAt returns the mean of bin i (0 if empty).
func (ts *TimeSeries) MeanAt(i int) float64 {
	switch {
	case i < 0 || i >= ts.nbins:
		panic(fmt.Sprintf("stats: bin %d outside [0, %d)", i, ts.nbins))
	case i > ts.open:
		return 0
	case i == ts.open:
		return ts.openMean()
	}
	// Runs that start at or before bin i: the block's rank plus the
	// change bits from the block's start through bit i.
	r := int(ts.rank[i/rankBlock])
	for w := i / rankBlock * (rankBlock / 64); w < i/64; w++ {
		r += bits.OnesCount64(ts.chg[w])
	}
	r += bits.OnesCount64(ts.chg[i/64] & (2<<(i%64) - 1))
	return ts.run(r - 1)
}

// Each calls f with every bin's index and mean, in bin order.
func (ts *TimeSeries) Each(f func(i int, mean float64)) {
	r, m := -1, 0.0
	for i := 0; i < ts.open; i++ {
		if ts.chg[i/64]&(1<<(i%64)) != 0 {
			r++
			m = ts.run(r)
		}
		f(i, m)
	}
	f(ts.open, ts.openMean())
	for i := ts.open + 1; i < ts.nbins; i++ {
		f(i, 0)
	}
}

// Means returns the per-bin means.
func (ts *TimeSeries) Means() []float64 {
	out := make([]float64, ts.nbins)
	ts.Each(func(i int, mean float64) { out[i] = mean })
	return out
}
