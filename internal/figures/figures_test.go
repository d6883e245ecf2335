package figures

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// smallDay is a unit-test-sized office day: 40 clients on 8 gateways over
// the first hours of the day, under the given schemes.
func smallDay(seed int64, hours float64, schemes ...sim.Scheme) dsl.Spec {
	sp := dsl.Spec{
		Name: "small-day", Seeds: []int64{seed}, Duration: hours * 3600,
		Trace:    dsl.TraceSpec{Profile: "office", Clients: 40, Gateways: 8},
		Topology: dsl.TopoSpec{Kind: "overlap", MeanInRange: 5},
	}
	for _, sc := range schemes {
		sp.Schemes = append(sp.Schemes, sc.String())
	}
	return sp
}

// runDay runs a one-seed day spec on the given number of workers.
func runDay(t *testing.T, sp dsl.Spec, workers int) *DayRuns {
	t.Helper()
	var days []*DayRuns
	err := RunDays(context.Background(), sp, campaign.Options{Workers: workers}, func(r *DayRuns) error {
		days = append(days, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 || len(days[0].Results) != len(sp.Schemes) {
		t.Fatalf("got %d day(s), want one with %d schemes", len(days), len(sp.Schemes))
	}
	return days[0]
}

// tinyDay runs a subset of schemes over a small office day so figure
// reductions can be tested quickly. Ten hours reach the office morning.
func tinyDay(t *testing.T) *DayRuns {
	t.Helper()
	return runDay(t, smallDay(3, 10, sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch, sim.BH2NoBackup), 0)
}

// TestDaySpec pins the day spec to the §5.1 scenario: the campaign builds
// the uniform-placement office trace and the 5.6-overlap topology that
// trace.DefaultSimConfig and topology.OverlapGraph describe, and every
// seed runs every scheme, no-sleep first.
func TestDaySpec(t *testing.T) {
	plan, err := campaign.Compile(DaySpec([]int64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 2*len(DefaultSchemes) || plan.Cells[0].Scheme != sim.NoSleep {
		t.Fatalf("day spec has %d cells starting with %v", len(plan.Cells), plan.Cells[0].Scheme)
	}
	tr, tp, err := campaign.BuildScenario(plan.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Generate(trace.DefaultSimConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Cfg, want.Cfg) || !reflect.DeepEqual(tr.ClientAP, want.ClientAP) || len(tr.Flows) != len(want.Flows) {
		t.Errorf("day spec trace differs from trace.DefaultSimConfig's")
	}
	g, err := topology.OverlapGraph(40, topology.DefaultMeanInRange, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTp, err := topology.FromOverlap(g, want.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cfg.Clients != 272 || tp.NumGateways != 40 || !reflect.DeepEqual(tp, wantTp) {
		t.Errorf("scenario shape: %d clients, %d gateways", tr.Cfg.Clients, tp.NumGateways)
	}
}

func TestFig2Series(t *testing.T) {
	series, err := Fig2(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.X) != 24 || len(s.Y) != 24 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Y))
		}
	}
}

func TestFig3And4(t *testing.T) {
	s, err := Fig3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Y) != 24 {
		t.Fatal("Fig3 not hourly")
	}
	labels, fracs, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 24 || len(fracs) != 24 {
		t.Fatalf("Fig4 bins: %d/%d", len(labels), len(fracs))
	}
	if labels[len(labels)-1] != ">60" {
		t.Errorf("last label = %q", labels[len(labels)-1])
	}
	var sum float64
	for _, f := range fracs {
		sum += f
	}
	if sum < 99 || sum > 101 {
		t.Errorf("fractions sum to %v%%, want ~100", sum)
	}
}

func TestFig5Anchors(t *testing.T) {
	series, err := Fig5(24, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	// 8-switch (index 2) card 1 ≈ 0.91 at p=0.5; entries beyond k are 0.
	if series[2].Y[0] < 0.85 {
		t.Errorf("8-switch card1 = %v", series[2].Y[0])
	}
	if series[0].Y[4] != 0 {
		t.Errorf("2-switch card5 = %v, want 0 (beyond k)", series[0].Y[4])
	}
}

func TestDayFigureReductions(t *testing.T) {
	runs := tinyDay(t)

	f6 := Fig6(runs)
	if len(f6) < 2 {
		t.Fatalf("Fig6 series: %d", len(f6))
	}
	for _, s := range f6 {
		if len(s.Y) != 24 {
			t.Fatalf("%s not hourly", s.Name)
		}
		for _, y := range s.Y {
			if y < -5 || y > 100 {
				t.Fatalf("%s savings %v out of range", s.Name, y)
			}
		}
	}

	f7 := Fig7(runs)
	for _, s := range f7 {
		for _, y := range s.Y {
			if y < 0 || y > 8 {
				t.Fatalf("%s online gateways %v out of [0,8]", s.Name, y)
			}
		}
	}

	f8 := Fig8(runs)
	for _, s := range f8 {
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				t.Fatalf("%s ISP share %v out of range", s.Name, y)
			}
		}
	}

	for _, s := range Fig9a(runs) {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev-1e-9 || y < 0 || y > 1 {
				t.Fatalf("%s CDF not monotone in [0,1]", s.Name)
			}
			prev = y
		}
	}
	for _, s := range Fig9b(runs) {
		prev := -1.0
		for _, y := range s.Y {
			if y < prev-1e-9 {
				t.Fatalf("%s CDF not monotone", s.Name)
			}
			prev = y
		}
	}

	table := LineCardTable(runs)
	if table[sim.SoI.String()] <= 0 {
		t.Error("line card table empty")
	}

	h := Summarize(runs)
	if h.Savings[sim.BH2KSwitch.String()] <= 0 {
		t.Error("no BH2 savings in headline")
	}
	if h.UserShare+h.ISPShare < 0.99 || h.UserShare+h.ISPShare > 1.01 {
		t.Errorf("shares don't sum to 1: %v + %v", h.UserShare, h.ISPShare)
	}
	if h.WorldTWh <= 0 {
		t.Error("no extrapolation")
	}
}

func TestHourlyShortSeries(t *testing.T) {
	// Fewer bins than hours: every bin must still land in its own hour
	// instead of vanishing into empty windows (per == 0 regression).
	got := hourly(func(i int) float64 { return float64(i + 1) }, 12)
	if len(got) != 24 {
		t.Fatalf("hourly returned %d bins", len(got))
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if want := 1.0 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10 + 11 + 12; sum != float64(want) {
		t.Errorf("short series lost samples: hourly sums to %v, want %v", sum, want)
	}
	// bin 0 maps to hour 0, bin 11 to hour 22.
	if got[0] != 1 || got[22] != 12 {
		t.Errorf("short-series binning off: hour0=%v hour22=%v", got[0], got[22])
	}
	if out := hourly(func(i int) float64 { return 1 }, 0); len(out) != 24 {
		t.Errorf("zero-bin series: %d hours", len(out))
	}
	// The common divisible case is unchanged: 48 bins -> 2 per hour.
	got = hourly(func(i int) float64 { return float64(i / 2) }, 48)
	for h, v := range got {
		if v != float64(h) {
			t.Fatalf("hour %d mean = %v, want %d", h, v, h)
		}
	}
}

func TestRunDayWorkerInvariance(t *testing.T) {
	sp := smallDay(4, 2, sim.NoSleep, sim.SoI, sim.BH2KSwitch)
	serial, parallel := runDay(t, sp, 1), runDay(t, sp, 4)
	for s, a := range serial.Results {
		b := parallel.Results[s]
		if b == nil {
			t.Fatalf("%v missing from the parallel runs", s)
		}
		if a.Energy != b.Energy || a.Wakeups != b.Wakeups || a.Moves != b.Moves {
			t.Errorf("%v differs between 1 and 4 workers: %+v vs %+v", s, a.Energy, b.Energy)
		}
		for i := range a.FCT {
			af, bf := a.FCT[i], b.FCT[i]
			if (af != bf) && !(af != af && bf != bf) { // NaN-tolerant compare
				t.Fatalf("%v FCT[%d]: %v vs %v", s, i, af, bf)
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	series, err := Fig15(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Y) != 14 {
		t.Fatalf("Fig15 shape: %d series", len(series))
	}
	for _, sd := range series[1].Y {
		if sd < 15 || sd > 32 {
			t.Errorf("card sigma %v outside the one-mile band", sd)
		}
	}
}

func TestWriteHistogramCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHistogramCSV(&buf, []string{"0-1", ">60"}, []float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ">60,0.2") {
		t.Errorf("histogram CSV: %q", buf.String())
	}
}

func TestRenderASCII(t *testing.T) {
	s := stats.Series{Name: "demo", X: []float64{0, 1}, Y: []float64{1, 2}}
	out := RenderASCII(s, 10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "##########") {
		t.Errorf("ascii: %q", out)
	}
	if got := RenderASCII(stats.Series{Name: "empty"}, 10); !strings.Contains(got, "empty") {
		t.Errorf("empty ascii: %q", got)
	}
}

func TestFig9aWakeStallVsContention(t *testing.T) {
	runs := tinyDay(t)
	stall := Fig9a(runs)
	cont := Fig9aContention(runs)
	if len(stall) != len(cont) {
		t.Fatal("series count mismatch")
	}
	// Wake-stall accounting can only classify fewer flows as affected.
	for i := range stall {
		if stall[i].Y[0] < cont[i].Y[0]-1e-9 {
			t.Errorf("%s: stall-based unaffected %.3f below contention-based %.3f",
				stall[i].Name, stall[i].Y[0], cont[i].Y[0])
		}
	}
}
