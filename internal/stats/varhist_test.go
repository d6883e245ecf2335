package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func fig4ishEdges() []float64 {
	return []float64{0, 1, 2, 5, 10, 60, math.Inf(1)}
}

func TestVarHistogramBinning(t *testing.T) {
	h := NewVarHistogram(fig4ishEdges())
	if h.Bins() != 6 {
		t.Fatalf("bins = %d", h.Bins())
	}
	cases := []struct {
		x   float64
		bin int
	}{
		{-1, 0}, // clamped
		{0, 0},
		{0.99, 0},
		{1, 1}, // exact edge belongs to the upper bin
		{4.9, 2},
		{5, 3},
		{59.9, 4},
		{60, 5},
		{1e9, 5},
	}
	for _, c := range cases {
		before := h.Count(c.bin)
		h.Add(c.x)
		if h.Count(c.bin) != before+1 {
			t.Errorf("Add(%v) did not land in bin %d", c.x, c.bin)
		}
	}
	if h.Total() != float64(len(cases)) {
		t.Errorf("total = %v", h.Total())
	}
}

func TestVarHistogramLabels(t *testing.T) {
	h := NewVarHistogram(fig4ishEdges())
	if got := h.Label(0); got != "0-1" {
		t.Errorf("label 0 = %q", got)
	}
	if got := h.Label(5); got != ">60" {
		t.Errorf("label 5 = %q", got)
	}
}

func TestVarHistogramMeanAt(t *testing.T) {
	h := NewVarHistogram(fig4ishEdges())
	h.AddWeighted(100, 2)
	h.AddWeighted(200, 2)
	if got := h.MeanAt(5); got != 150 {
		t.Errorf("open-bin mean = %v, want 150", got)
	}
	// Empty closed bin: midpoint. Empty open bin: 2x lower edge.
	if got := h.MeanAt(2); got != 3.5 {
		t.Errorf("empty bin mean = %v, want 3.5", got)
	}
	h2 := NewVarHistogram(fig4ishEdges())
	if got := h2.MeanAt(5); got != 120 {
		t.Errorf("empty open-bin mean = %v, want 120", got)
	}
}

func TestVarHistogramFractionBelow(t *testing.T) {
	h := NewVarHistogram(fig4ishEdges())
	h.AddWeighted(0.5, 3)
	h.AddWeighted(30, 1)
	h.AddWeighted(100, 1)
	if got := h.FractionBelow(60); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("below 60 = %v, want 0.8", got)
	}
	if got := h.FractionBelow(1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("below 1 = %v, want 0.6", got)
	}
	empty := NewVarHistogram(fig4ishEdges())
	if empty.FractionBelow(60) != 0 {
		t.Error("empty fraction below should be 0")
	}
}

func TestVarHistogramMerge(t *testing.T) {
	a := NewVarHistogram(fig4ishEdges())
	b := NewVarHistogram(fig4ishEdges())
	a.AddWeighted(0.5, 1)
	b.AddWeighted(0.5, 3)
	b.AddWeighted(100, 4)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count(0) != 4 || a.Count(5) != 4 || a.Total() != 8 {
		t.Errorf("merged: %v %v %v", a.Count(0), a.Count(5), a.Total())
	}
	if got := a.MeanAt(5); got != 100 {
		t.Errorf("merged open-bin mean = %v", got)
	}
	c := NewVarHistogram([]float64{0, 1, 2})
	if err := a.Merge(c); err == nil {
		t.Error("incompatible merge accepted")
	}
	d := NewVarHistogram([]float64{0, 1.5, 2, 5, 10, 60, math.Inf(1)})
	if err := a.Merge(d); err == nil {
		t.Error("mismatched edges accepted")
	}
}

func TestVarHistogramPanics(t *testing.T) {
	for _, edges := range [][]float64{{1}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edges %v accepted", edges)
				}
			}()
			NewVarHistogram(edges)
		}()
	}
}

// Property: fractions are non-negative and sum to 1 for any non-empty
// histogram; FractionBelow is monotone in x.
func TestVarHistogramProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewVarHistogram(fig4ishEdges())
		for _, v := range raw {
			h.Add(float64(v) / 100)
		}
		if len(raw) == 0 {
			return h.Total() == 0
		}
		var sum float64
		for _, fr := range h.Fractions() {
			if fr < 0 {
				return false
			}
			sum += fr
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		prev := 0.0
		for _, x := range []float64{0, 1, 2, 5, 10, 60} {
			fb := h.FractionBelow(x)
			if fb < prev-1e-12 {
				return false
			}
			prev = fb
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECDFValuesShared(t *testing.T) {
	e := NewECDF([]float64{2, 1})
	v := e.Values()
	if len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Errorf("values = %v", v)
	}
}

func TestQuantileHelper(t *testing.T) {
	if got := Quantile([]float64{4, 1, 3, 2}, 0.25); got != 1 {
		t.Errorf("q25 = %v", got)
	}
}
