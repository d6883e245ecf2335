package stats

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got := w.Var(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Errorf("empty accumulator should be all zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Var() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Var())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(n1, n2 int) {
		var a, b, all Welford
		for i := 0; i < n1; i++ {
			x := r.NormFloat64()
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := r.NormFloat64()*3 + 10
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.Var()-all.Var()) > 1e-9 {
			t.Errorf("merge(%d,%d): mean %v vs %v, var %v vs %v", n1, n2, a.Mean(), all.Mean(), a.Var(), all.Var())
		}
	}
	check(10, 20)
	check(0, 5)
	check(5, 0)
	check(1, 1)
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2.5, 0.4}, {5, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if q := e.Quantile(0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := e.Quantile(0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q := e.Quantile(1); q != 5 {
		t.Errorf("q1 = %v, want 5", q)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(1) != 0 {
		t.Errorf("empty At = %v", e.At(1))
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Errorf("empty quantile should be NaN")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

// Property: ECDF is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				sample = append(sample, x)
			}
		}
		e := NewECDF(sample)
		prevX, prevY := math.Inf(-1), 0.0
		pts := make([]float64, 0, len(probe))
		for _, x := range probe {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				pts = append(pts, x)
			}
		}
		ec := NewECDF(pts) // reuse sorting
		for _, x := range ec.Values() {
			y := e.At(x)
			if y < 0 || y > 1 {
				return false
			}
			if x >= prevX && y < prevY {
				return false
			}
			prevX, prevY = x, y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(0, 24, 24) // a day in hours
	ts.Add(0.5, 10)
	ts.Add(0.9, 20)
	ts.Add(23.5, 5)
	ts.Add(-1, 999) // dropped
	ts.Add(24, 999) // dropped
	if got := ts.MeanAt(0); got != 15 {
		t.Errorf("bin 0 mean = %v, want 15", got)
	}
	if got := ts.MeanAt(23); got != 5 {
		t.Errorf("bin 23 mean = %v, want 5", got)
	}
	if got := ts.MeanAt(12); got != 0 {
		t.Errorf("empty bin mean = %v, want 0", got)
	}
	if bt := ts.BinTime(0); bt != 0.5 {
		t.Errorf("BinTime(0) = %v, want 0.5", bt)
	}
}

// countingSeries is the plain definition TimeSeries must reproduce bit for
// bit: a sum and an explicit sample count per bin.
type countingSeries struct {
	start, width float64
	sum          []float64
	n            []int
}

func (r *countingSeries) add(t, v float64) {
	i := int((t - r.start) / r.width)
	if i < 0 || i >= len(r.sum) {
		return
	}
	r.sum[i] += v
	r.n[i]++
}

func (r *countingSeries) meanAt(i int) float64 {
	if r.n[i] == 0 {
		return 0
	}
	return r.sum[i] / float64(r.n[i])
}

func TestTimeSeriesMatchesCountingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5}
	type sample struct{ t, v float64 }
	for trial := 0; trial < 300; trial++ {
		nbins := 1 + rng.Intn(200)
		start := float64(rng.Intn(100) - 50)
		end := start + float64(nbins)*(0.25+rng.Float64()*2)
		ts := NewTimeSeries(start, end, nbins)
		ref := &countingSeries{start: start, width: (end - start) / float64(nbins),
			sum: make([]float64, nbins), n: make([]int, nbins)}
		// Half the trials sample once per bin, as the engine does, so
		// single-sample bins see NaN and -0 too; the rest repeat bins,
		// skip bins and stray outside the range. Samples are added in time
		// order, which Add requires.
		onePerBin := trial%2 == 0
		adds := rng.Intn(3 * nbins)
		if onePerBin {
			adds = nbins
		}
		draws := make([]sample, adds)
		for k := range draws {
			tm := start + (float64(k)+0.5)*ref.width
			if !onePerBin {
				tm = start + (rng.Float64()*1.2-0.1)*(end-start)
			}
			v := rng.NormFloat64() * 100
			if rng.Intn(5) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			draws[k] = sample{tm, v}
		}
		sort.SliceStable(draws, func(a, b int) bool { return draws[a].t < draws[b].t })
		for _, d := range draws {
			ts.Add(d.t, d.v)
			ref.add(d.t, d.v)
		}
		means := ts.Means()
		walked := 0
		ts.Each(func(i int, mean float64) {
			if i != walked {
				t.Fatalf("trial %d: Each visited bin %d, want %d", trial, i, walked)
			}
			walked++
			if got, want := math.Float64bits(mean), math.Float64bits(ref.meanAt(i)); got != want {
				t.Fatalf("trial %d bin %d: Each bits %x, want %x", trial, i, got, want)
			}
		})
		if walked != nbins {
			t.Fatalf("trial %d: Each visited %d bins, want %d", trial, walked, nbins)
		}
		for i := 0; i < nbins; i++ {
			want := math.Float64bits(ref.meanAt(i))
			if got := math.Float64bits(ts.MeanAt(i)); got != want {
				t.Fatalf("trial %d bin %d: MeanAt bits %x, want %x", trial, i, got, want)
			}
			if got := math.Float64bits(means[i]); got != want {
				t.Fatalf("trial %d bin %d: Means bits %x, want %x", trial, i, got, want)
			}
		}
	}
}

// A day-long series whose value changes every bin, the step form's worst
// case, must cost at most the one float per bin a dense series would plus
// one bit per bin.
func TestTimeSeriesOneSamplePerBinAllocatesNoCounts(t *testing.T) {
	const day = 86400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts := NewTimeSeries(0, day, day)
	for i := 0; i < day; i++ {
		ts.Add(float64(i), float64(i%7))
	}
	runtime.ReadMemStats(&after)
	// Means and bits plus the allocator's size-class rounding; even an
	// int32 count per bin would add 337 KiB.
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(day*8+day/8+16<<10); got > max {
		t.Errorf("allocated %d bytes, want at most %d", got, max)
	}
	if ts.MeanAt(day-1) != float64((day-1)%7) {
		t.Errorf("wrong last mean %v", ts.MeanAt(day-1))
	}
}

// stepDay fills a day-long series at one sample per second with a value
// that steps every period seconds.
func stepDay(period int) *TimeSeries {
	const day = 86400
	ts := NewTimeSeries(0, day, day)
	for i := 0; i < day; i++ {
		ts.Add(float64(i), float64(i/period%5))
	}
	return ts
}

// A step signal costs its changes: a day whose value changes once a
// minute holds 1,440 runs, not 86,400 bins.
func TestTimeSeriesStepSignalCostsItsChanges(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts := stepDay(60)
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(64<<10); got > max {
		t.Errorf("allocated %d bytes, want at most %d", got, max)
	}
	for _, i := range []int{0, 59, 60, 61, 43199, 86339, 86340, 86399} {
		if got, want := ts.MeanAt(i), float64(i/60%5); got != want {
			t.Errorf("bin %d: mean %v, want %v", i, got, want)
		}
	}
}

// Samples must arrive in bin order: one before the open bin panics, while
// out-of-range samples are still dropped.
func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	ts := NewTimeSeries(0, 10, 10)
	ts.Add(5.5, 2)
	ts.Add(5.9, 4) // the open bin may take more samples
	ts.Add(-1, 999)
	ts.Add(10, 999)
	if got := ts.MeanAt(5); got != 3 {
		t.Fatalf("open bin mean %v, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("a sample before the open bin did not panic")
		}
	}()
	ts.Add(4.5, 1)
}

var sinkSeriesMean float64

// BenchmarkTimeSeriesDay adds a day of one-per-second samples of a signal
// that steps every 37 s, then walks the result.
func BenchmarkTimeSeriesDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w Welford
		stepDay(37).Each(func(_ int, mean float64) { w.Add(mean) })
		sinkSeriesMean = w.Mean()
	}
}

func TestMeanMedianQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if m := Mean(s); m != 3 {
		t.Errorf("Mean = %v", m)
	}
	if m := Median(s); m != 3 {
		t.Errorf("Median = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestNewRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(7, 1)
	b := NewRNG(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams collided %d times", same)
	}
	// Determinism: same seed/stream gives the same sequence.
	c, d := NewRNG(7, 1), NewRNG(7, 1)
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same stream not deterministic")
		}
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(1, 0)
	for i := 0; i < 10000; i++ {
		x := Pareto(r, 1.2, 10, 1e6)
		if x < 10 || x > 1e6 {
			t.Fatalf("Pareto out of bounds: %v", x)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := NewRNG(2, 0)
	var w Welford
	over := 0
	const n = 200000
	for i := 0; i < n; i++ {
		x := Pareto(r, 1.2, 1, 1e9)
		w.Add(x)
		if x > 100 {
			over++
		}
	}
	// For alpha=1.2, P(X>100) ~ 100^-1.2 ~ 0.0040 (slightly less with the
	// upper bound). Check it's in a loose band.
	frac := float64(over) / n
	if frac < 0.001 || frac > 0.01 {
		t.Errorf("tail fraction = %v, want ~0.004", frac)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(3, 0)
	if WeightedChoice(r, nil) != -1 {
		t.Error("empty weights should return -1")
	}
	counts := make([]int, 3)
	w := []float64{1, 0, 3}
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(r, w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := NewRNG(4, 0)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[WeightedChoice(r, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 1500 || c > 2500 {
			t.Errorf("uniform fallback bin %d = %d, want ~2000", i, c)
		}
	}
}

// Property: WeightedChoice never returns an index with non-positive weight
// when at least one weight is positive, and always returns a valid index.
func TestWeightedChoiceProperty(t *testing.T) {
	r := NewRNG(5, 0)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		anyPos := false
		for i, b := range raw {
			w[i] = float64(b)
			if b > 0 {
				anyPos = true
			}
		}
		i := WeightedChoice(r, w)
		if i < 0 || i >= len(w) {
			return false
		}
		if anyPos && w[i] == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6, 0)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(Exp(r, 5))
	}
	if math.Abs(w.Mean()-5) > 0.1 {
		t.Errorf("Exp mean = %v, want ~5", w.Mean())
	}
}

func TestLognormalMedian(t *testing.T) {
	r := NewRNG(7, 0)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = Lognormal(r, 2, 0.5)
	}
	med := Median(xs)
	want := math.Exp(2)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("lognormal median = %v, want ~%v", med, want)
	}
}
