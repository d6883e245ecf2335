package trace

import (
	"bytes"
	"insomnia/internal/stats"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestProfileInterpolation(t *testing.T) {
	var p Profile
	p[0], p[1] = 0.2, 0.4
	if got := p.At(0); got != 0.2 {
		t.Errorf("At(0) = %v", got)
	}
	if got := p.At(1800); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("At(1800) = %v, want 0.3", got)
	}
	// Wrap at midnight: hour 23 -> hour 0.
	p[23] = 0.8
	if got := p.At(23.5 * 3600); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(23.5h) = %v, want 0.5", got)
	}
	if got := p.At(-3600); got != p.At(Day-3600) {
		t.Errorf("negative wrap: %v vs %v", got, p.At(Day-3600))
	}
}

func TestProfileMax(t *testing.T) {
	if m := OfficeProfile.Max(); m != 0.7 {
		t.Errorf("office max = %v, want 0.7", m)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Clients: 0, APs: 4}); err == nil {
		t.Error("expected error for zero clients")
	}
	if _, err := Generate(Config{Clients: 3, APs: 4}); err == nil {
		t.Error("expected error for clients < APs")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Clients: 30, APs: 5, Profile: OfficeProfile, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != len(b.Flows) || len(a.Keepalives) != len(b.Keepalives) {
		t.Fatalf("non-deterministic sizes: %d/%d vs %d/%d",
			len(a.Flows), len(a.Keepalives), len(b.Flows), len(b.Keepalives))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
	c, err := Generate(Config{Clients: 30, APs: 5, Profile: OfficeProfile, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Flows) == len(a.Flows) && len(c.Keepalives) == len(a.Keepalives) {
		// Extremely unlikely to match on both counts with a different seed.
		same := true
		for i := range a.Flows {
			if a.Flows[i] != c.Flows[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

// TestGenerateParallelIdentical pins generator parallelism: a trace of
// several client blocks is the same, element for element, at any
// GOMAXPROCS. Both configs tie many flows at equal start times (city
// clients online at t = 0 start their streams at 0, and symmetric clients
// of one slot draw identical times), so a block appended out of order
// would show as ties sorted differently.
func TestGenerateParallelIdentical(t *testing.T) {
	city := DefaultCityConfig(5)
	city.Clients, city.APs, city.Duration = 3*genBlock+100, 100, 1800
	sym := city
	sym.Symmetric = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"city", city}, {"symmetric", sym}} {
		var want *Trace
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				ties := 0
				for i := 1; i < len(got.Flows); i++ {
					if got.Flows[i].Start == got.Flows[i-1].Start {
						ties++
					}
				}
				if ties == 0 || len(got.Keepalives) == 0 {
					t.Fatalf("%s: %d flow ties, %d keepalives; the config no longer exercises the tie order",
						tc.name, ties, len(got.Keepalives))
				}
				continue
			}
			if !slices.Equal(got.ClientAP, want.ClientAP) {
				t.Errorf("%s: ClientAP at GOMAXPROCS %d differs from GOMAXPROCS 1", tc.name, procs)
			}
			if !slices.Equal(got.Flows, want.Flows) {
				t.Errorf("%s: flows at GOMAXPROCS %d differ from GOMAXPROCS 1", tc.name, procs)
			}
			if !slices.Equal(got.Keepalives, want.Keepalives) {
				t.Errorf("%s: keepalives at GOMAXPROCS %d differ from GOMAXPROCS 1", tc.name, procs)
			}
		}
	}
}

func TestGeneratedTraceValidates(t *testing.T) {
	tr, err := Generate(DefaultOfficeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Flows) == 0 || len(tr.Keepalives) == 0 {
		t.Fatalf("empty trace: %d flows, %d keepalives", len(tr.Flows), len(tr.Keepalives))
	}
}

func TestClientPlacementBalanced(t *testing.T) {
	tr, err := Generate(DefaultSimConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, tr.Cfg.APs)
	for _, ap := range tr.ClientAP {
		counts[ap]++
	}
	for ap, n := range counts {
		if n < 6 || n > 7 { // 272/40 = 6.8
			t.Errorf("AP %d has %d clients, want 6-7", ap, n)
		}
	}
}

func TestZipfPlacementSkewedButTotal(t *testing.T) {
	tr, err := Generate(DefaultOfficeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, tr.Cfg.APs)
	for _, ap := range tr.ClientAP {
		counts[ap]++
	}
	min, max, total := counts[0], counts[0], 0
	for _, n := range counts {
		total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if total != tr.Cfg.Clients {
		t.Errorf("placement lost clients: %d", total)
	}
	if min < 1 {
		t.Errorf("an AP got zero clients")
	}
	if max < 3*min {
		t.Errorf("placement not skewed: min=%d max=%d", min, max)
	}
}

// Calibration: the office trace must reproduce Fig 3 — average AP
// utilization on 6 Mbps backhaul peaking around 8% at 16-17 h and near zero
// overnight.
func TestOfficeUtilizationMatchesFig3(t *testing.T) {
	tr, err := Generate(DefaultOfficeConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	m := tr.UtilizationMatrix(false, 24)
	mean := MeanUtilization(m)
	peak := mean[16]
	if peak < 0.05 || peak > 0.12 {
		t.Errorf("peak-hour (16-17h) mean utilization = %.4f, want 0.05-0.12 (paper ~0.08)", peak)
	}
	night := (mean[2] + mean[3] + mean[4]) / 3
	if night > 0.01 {
		t.Errorf("night utilization = %.4f, want < 0.01", night)
	}
	if night >= peak/4 {
		t.Errorf("no diurnal shape: night %.4f vs peak %.4f", night, peak)
	}
}

// Calibration: Fig 4 — during the peak hour, most per-AP idle time is made
// of inter-packet gaps shorter than 60 s. A single synthetic building-day
// is noisy (the >60 s mass is dominated by a few long lulls at small APs),
// so assert on the mean over several seeds.
func TestGapHistogramMatchesFig4(t *testing.T) {
	h := stats.NewVarHistogram(Fig4Edges())
	for seed := int64(1); seed <= 4; seed++ {
		tr, err := Generate(DefaultOfficeConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Merge(tr.GapHistogram(16*3600, 17*3600)); err != nil {
			t.Fatal(err)
		}
	}
	below := h.FractionBelow(60)
	if below < 0.62 || below > 0.95 {
		t.Errorf("idle-time fraction in gaps <60s = %.3f, want 0.62-0.95 (paper >0.80)", below)
	}
	over := h.Fractions()[h.Bins()-1]
	if over < 0.05 || over > 0.38 {
		t.Errorf(">60s idle-time share = %.3f, want 0.05-0.38 (paper ~0.18)", over)
	}
}

// Calibration: "roughly 82% of the inter-packet gaps are lower than 60 s"
// (count-weighted, §5.1).
func TestGapCountsMatchPaper(t *testing.T) {
	tr, err := Generate(DefaultOfficeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.GapCountHistogram(16*3600, 17*3600)
	below := h.FractionBelow(60)
	if below < 0.80 {
		t.Errorf("count fraction of gaps <60s = %.3f, want >= 0.80", below)
	}
}

// Calibration: Fig 2 — residential average utilization peaks in the evening
// at a few percent; the median user is near zero.
func TestResidentialUtilizationMatchesFig2(t *testing.T) {
	tr, err := Generate(DefaultResidentialConfig(400, 6))
	if err != nil {
		t.Fatal(err)
	}
	m := tr.UtilizationMatrix(false, 24)
	mean := MeanUtilization(m)
	med := MedianUtilization(m)
	peakHour, peak := 0, 0.0
	for h, v := range mean {
		if v > peak {
			peak, peakHour = v, h
		}
	}
	if peak < 0.03 || peak > 0.12 {
		t.Errorf("residential peak mean utilization = %.4f, want 0.03-0.12 (paper <=0.09)", peak)
	}
	if peakHour < 18 && peakHour > 23 {
		t.Errorf("residential peak at hour %d, want evening", peakHour)
	}
	// Median utilization is an order of magnitude below the mean (Fig 2
	// right: 0.01-0.05% vs several percent).
	for h := 0; h < 24; h++ {
		if med[h] > mean[h] {
			t.Errorf("hour %d: median %.5f above mean %.5f", h, med[h], mean[h])
		}
	}
	medPeak := 0.0
	for _, v := range med {
		if v > medPeak {
			medPeak = v
		}
	}
	if medPeak > peak/3 {
		t.Errorf("median peak %.5f not far below mean peak %.5f", medPeak, peak)
	}
	// Uplink series exists and is non-trivial.
	up := MeanUtilization(tr.UtilizationMatrix(true, 24))
	var upPeak float64
	for _, v := range up {
		if v > upPeak {
			upPeak = v
		}
	}
	if upPeak <= 0 {
		t.Error("no uplink utilization generated")
	}
}

func TestMergeIntervals(t *testing.T) {
	in := []Interval{{5, 6}, {1, 2}, {2, 3}, {10, 10}, {9.5, 11}}
	out := MergeIntervals(in)
	want := []Interval{{1, 3}, {5, 6}, {9.5, 11}}
	if len(out) != len(want) {
		t.Fatalf("merged = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, out[i], want[i])
		}
	}
	if MergeIntervals(nil) != nil {
		t.Error("nil merge should stay nil")
	}
}

// Property: merged intervals are sorted, non-overlapping, and cover exactly
// the union of the inputs (measured by total length on integer grids).
func TestMergeIntervalsProperty(t *testing.T) {
	f := func(pairs []struct{ A, B uint8 }) bool {
		iv := make([]Interval, 0, len(pairs))
		covered := map[int]bool{}
		for _, p := range pairs {
			lo, hi := int(p.A%50), int(p.B%50)
			if lo > hi {
				lo, hi = hi, lo
			}
			iv = append(iv, Interval{float64(lo), float64(hi)})
			for x := lo; x < hi; x++ {
				covered[x] = true
			}
		}
		out := MergeIntervals(iv)
		var total float64
		for i, v := range out {
			if v.End < v.Start {
				return false
			}
			if i > 0 && v.Start <= out[i-1].End {
				return false
			}
			total += v.End - v.Start
		}
		return math.Abs(total-float64(len(covered))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGapHistogramAccountsAllIdleTime(t *testing.T) {
	tr, err := Generate(Config{Clients: 40, APs: 8, Profile: OfficeProfile, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	from, to := 16*3600.0, 17*3600.0
	h := tr.GapHistogram(from, to)
	// Total idle time = window*APs - total busy time.
	var busy float64
	for ap := 0; ap < tr.Cfg.APs; ap++ {
		for _, v := range tr.APActivity(ap, from, to) {
			busy += v.End - v.Start
		}
	}
	wantIdle := (to-from)*float64(tr.Cfg.APs) - busy
	if math.Abs(h.Total()-wantIdle) > 1.0 {
		t.Errorf("histogram idle total = %.1f, want %.1f", h.Total(), wantIdle)
	}
}

func TestWriteFlowsCSV(t *testing.T) {
	tr, err := Generate(Config{Clients: 10, APs: 2, Profile: OfficeProfile, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteFlowsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != len(tr.Flows)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(tr.Flows)+1)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("start,client,bytes,rate,up\n")) {
		t.Error("missing CSV header")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr, err := Generate(Config{Clients: 10, APs: 2, Profile: OfficeProfile, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*Trace){
		func(c *Trace) { c.ClientAP[0] = 99 },
		func(c *Trace) { c.Flows[0].Bytes = -1 },
		func(c *Trace) { c.Flows[0].Client = 1000 },
		func(c *Trace) {
			if len(c.Flows) > 1 {
				c.Flows[0].Start = c.Flows[len(c.Flows)-1].Start + 1e6
			}
		},
	}
	for i, corrupt := range cases {
		cp := *tr
		cp.ClientAP = slices.Clone(tr.ClientAP)
		cp.Flows = slices.Clone(tr.Flows)
		corrupt(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("case %d: corruption not detected", i)
		}
	}
}

func TestTotalBytesAndClientsOfAP(t *testing.T) {
	tr := &Trace{
		Cfg:      Config{Clients: 3, APs: 2, Duration: 100}.withDefaults(),
		ClientAP: []int{0, 1, 0},
		Flows: []Flow{
			{Start: 1, Client: 0, Bytes: 100},
			{Start: 2, Client: 1, Bytes: 50, Up: true},
			{Start: 3, Client: 2, Bytes: 25},
		},
	}
	if got := tr.TotalBytes(false); got != 125 {
		t.Errorf("down bytes = %d", got)
	}
	if got := tr.TotalBytes(true); got != 50 {
		t.Errorf("up bytes = %d", got)
	}
	cs := tr.ClientsOfAP(0)
	if len(cs) != 2 || cs[0] != 0 || cs[1] != 2 {
		t.Errorf("ClientsOfAP(0) = %v", cs)
	}
}

func TestFlowsOnlySkipsKeepalives(t *testing.T) {
	tr, err := Generate(Config{Clients: 20, APs: 4, Profile: OfficeProfile, Seed: 19, FlowsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Keepalives) != 0 {
		t.Errorf("FlowsOnly trace has %d keepalives", len(tr.Keepalives))
	}
	if len(tr.Flows) == 0 {
		t.Error("FlowsOnly trace has no flows")
	}
}

func TestFig4Edges(t *testing.T) {
	e := Fig4Edges()
	if len(e) != 25 {
		t.Fatalf("got %d edges, want 25", len(e))
	}
	if e[0] != 0 || e[21] != 21 || e[22] != 40 || e[23] != 60 || !math.IsInf(e[24], 1) {
		t.Errorf("edges = %v", e)
	}
}
