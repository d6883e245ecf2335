package campaign

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedPercentiles is the sort-and-index definition the selection in
// fctPercentiles must reproduce: value xs[i] occurs ws[i] times (once each
// when ws is nil), NaNs are dropped, and p picks rank int(p·(n−1)) of the
// sorted expansion.
func sortedPercentiles(xs, ws []float64) (p50, p95 float64) {
	type vw struct{ v, w float64 }
	var all []vw
	total := 0
	for i, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		w := 1.0
		if ws != nil {
			w = ws[i]
		}
		all = append(all, vw{v, w})
		total += int(w)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	pick := func(q float64) float64 {
		rank := int(q * float64(total-1))
		cum := 0
		for _, x := range all {
			cum += int(x.w)
			if rank < cum {
				return x.v
			}
		}
		return all[len(all)-1].v
	}
	return round6(pick(0.50)), round6(pick(0.95))
}

// TestPercentilesMatchSort checks the quickselect against sorting on
// random multisets: heavy ties, sorted and reversed runs, NaN gaps, tiny
// sizes and class weights.
func TestPercentilesMatchSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(300)
		if trial < 20 {
			n = trial // every tiny size, including empty
		}
		xs := make([]float64, n)
		ws := make([]float64, n)
		distinct := 1 + r.Intn(n+1) // few distinct values means many ties
		for i := range xs {
			xs[i] = float64(r.Intn(distinct)) * 0.37
			ws[i] = float64(1 + r.Intn(9))
			if r.Intn(10) == 0 {
				xs[i] = math.NaN()
			}
		}
		switch trial % 3 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		in := append([]float64(nil), xs...)
		w50, w95 := sortedPercentiles(xs, nil)
		if g50, g95 := fctPercentiles(xs, nil); g50 != w50 || g95 != w95 {
			t.Fatalf("trial %d (n=%d): fctPercentiles = %v, %v; sorting gives %v, %v", trial, n, g50, g95, w50, w95)
		}
		w50, w95 = sortedPercentiles(xs, ws)
		if g50, g95 := fctPercentiles(xs, ws); g50 != w50 || g95 != w95 {
			t.Fatalf("trial %d (n=%d): weighted fctPercentiles = %v, %v; sorting gives %v, %v", trial, n, g50, g95, w50, w95)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("trial %d: fctPercentiles reordered its input", trial)
			}
		}
	}
}
