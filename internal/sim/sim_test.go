package sim

import (
	"math"
	"testing"

	"insomnia/internal/bh2"
	"insomnia/internal/dsl"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// smallScenario builds a reduced but structurally faithful scenario: 48
// clients on 8 gateways, 2-hour trace, so tests stay fast.
func smallScenario(t *testing.T, seed int64) (*trace.Trace, *topology.Topology) {
	t.Helper()
	// A flat daytime-level activity profile so the 2-hour window carries
	// enough traffic for the schemes to differ.
	var busy trace.Profile
	for i := range busy {
		busy[i] = 0.55
	}
	cfg := trace.Config{
		Clients: 48, APs: 8, Profile: busy, Seed: seed,
		Duration: 2 * 3600,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.OverlapGraph(8, 5.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tp
}

func run(t *testing.T, tr *trace.Trace, tp *topology.Topology, sc Scheme, seed int64) *Result {
	t.Helper()
	res, err := Run(Config{Trace: tr, Topo: tp, Scheme: sc, Seed: seed, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		NoSleep: "no-sleep", SoI: "SoI", SoIKSwitch: "SoI+k-switch",
		SoIFullSwitch: "SoI+full-switch", BH2KSwitch: "BH2+k-switch",
		BH2FullSwitch: "BH2+full-switch", BH2NoBackup: "BH2-nobackup+k-switch",
		Optimal: "optimal", Centralized: "centralized+k-switch",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d: %q != %q", s, s.String(), want)
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Error("unknown scheme string")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	tr, tp := smallScenario(t, 1)
	// Mismatched topology.
	g2, err := topology.OverlapGraph(8, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := topology.FromOverlap(g2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Trace: tr, Topo: tp2}); err == nil {
		t.Error("client-count mismatch accepted")
	}
	_ = tp
	// A trace shorter than the metric tick has no result bin.
	for _, d := range []float64{0.5, math.NaN()} {
		short := &trace.Trace{Cfg: trace.Config{Clients: 2, APs: 1, Duration: d}, ClientAP: []int{0, 0}}
		stp, err := topology.FromOverlap(&topology.Graph{Adj: [][]int{nil}}, short.ClientAP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Config{Trace: short, Topo: stp, Scheme: SoI}); err == nil {
			t.Errorf("a %v s trace accepted", d)
		}
	}
}

func TestNoSleepBaselinePower(t *testing.T) {
	tr, tp := smallScenario(t, 2)
	res := run(t, tr, tp, NoSleep, 2)
	// Everything on for 2 h: 8 gateways x 9W user side; ISP: shelf 21 +
	// 4 cards x 98 + 8 modems x 1 = 421 W.
	dur := 2 * 3600.0
	wantUser := 8 * 9.0 * dur
	wantISP := (21 + 4*98 + 8) * dur
	if math.Abs(res.Energy.UserJ-wantUser) > 1 {
		t.Errorf("user energy = %v, want %v", res.Energy.UserJ, wantUser)
	}
	if math.Abs(res.Energy.ISPJ-wantISP) > 1 {
		t.Errorf("ISP energy = %v, want %v", res.Energy.ISPJ, wantISP)
	}
	// All gateways online at all times.
	for i := 0; i < res.OnlineGWs.Bins(); i++ {
		if res.OnlineGWs.MeanAt(i) != 8 {
			t.Fatalf("bin %d: %v gateways online under no-sleep", i, res.OnlineGWs.MeanAt(i))
		}
	}
	if res.Wakeups != 0 {
		t.Errorf("no-sleep had %d wakeups", res.Wakeups)
	}
}

func TestAllFlowsCompleteUnderNoSleep(t *testing.T) {
	tr, tp := smallScenario(t, 3)
	res := run(t, tr, tp, NoSleep, 3)
	incomplete := 0
	for i, f := range tr.Flows {
		if f.Up {
			continue
		}
		if math.IsNaN(res.FCT[i]) {
			incomplete++
			continue
		}
		// FCT at least the solo transfer time at 6 Mbps, bounded by wireless cap.
		min := float64(f.Bytes) / (6e6 / 8)
		if res.FCT[i] < min-1e-6 {
			t.Fatalf("flow %d finished faster than the link allows: %v < %v", i, res.FCT[i], min)
		}
	}
	// Flows arriving near the end may legitimately not finish.
	if frac := float64(incomplete) / float64(len(tr.Flows)); frac > 0.05 {
		t.Errorf("%.1f%% of flows incomplete under no-sleep", frac*100)
	}
}

func TestSoISavesEnergyButLessThanBH2(t *testing.T) {
	tr, tp := smallScenario(t, 4)
	base := run(t, tr, tp, NoSleep, 4)
	soi := run(t, tr, tp, SoI, 4)
	bh := run(t, tr, tp, BH2KSwitch, 4)
	sSoI, sBH := soi.SavingsVs(base), bh.SavingsVs(base)
	if sSoI <= 0 {
		t.Errorf("SoI savings = %v, want > 0", sSoI)
	}
	if sBH <= sSoI {
		t.Errorf("BH2 (%v) should beat SoI (%v)", sBH, sSoI)
	}
	if bh.Moves == 0 {
		t.Error("BH2 never moved a client")
	}
}

func TestOptimalBeatsEveryone(t *testing.T) {
	tr, tp := smallScenario(t, 5)
	base := run(t, tr, tp, NoSleep, 5)
	bh := run(t, tr, tp, BH2KSwitch, 5)
	opt := run(t, tr, tp, Optimal, 5)
	if opt.SavingsVs(base) < bh.SavingsVs(base)-0.02 {
		t.Errorf("optimal (%v) below BH2 (%v)", opt.SavingsVs(base), bh.SavingsVs(base))
	}
	if opt.Resolves == 0 {
		t.Error("optimal never resolved")
	}
	if opt.OptGap > opt.Resolves/10 {
		t.Errorf("%d/%d resolves hit the node budget", opt.OptGap, opt.Resolves)
	}
}

func TestOnlineGatewaysOrdering(t *testing.T) {
	// Fig 7's qualitative ordering at busy hours: optimal <= BH2 <= SoI.
	tr, tp := smallScenario(t, 6)
	soi := run(t, tr, tp, SoI, 6)
	bh := run(t, tr, tp, BH2KSwitch, 6)
	opt := run(t, tr, tp, Optimal, 6)
	mean := func(r *Result) float64 { return MeanOver(r.OnlineGWs, 0, 2) }
	if !(mean(opt) <= mean(bh)+0.5 && mean(bh) <= mean(soi)+0.5) {
		t.Errorf("online gateways: optimal %.2f, BH2 %.2f, SoI %.2f — ordering broken",
			mean(opt), mean(bh), mean(soi))
	}
}

func TestEnergyConservation(t *testing.T) {
	// Total energy equals the integral of sampled power within sampling
	// error — the accounting and the time series must agree.
	tr, tp := smallScenario(t, 7)
	for _, sc := range []Scheme{NoSleep, SoI, BH2KSwitch} {
		res := run(t, tr, tp, sc, 7)
		var integral float64
		for i := 0; i < res.PowerW.Bins(); i++ {
			integral += res.PowerW.MeanAt(i) * 1.0 // 1 s bins
		}
		total := res.Energy.Total()
		if total <= 0 {
			t.Fatalf("%v: zero energy", sc)
		}
		if rel := math.Abs(integral-total) / total; rel > 0.02 {
			t.Errorf("%v: sampled integral %v vs accounted %v (%.2f%% off)",
				sc, integral, total, rel*100)
		}
	}
}

func TestFCTNeverBelowNoSleep(t *testing.T) {
	// Sleeping can only delay flows. Compare per-flow against no-sleep.
	tr, tp := smallScenario(t, 8)
	base := run(t, tr, tp, NoSleep, 8)
	soi := run(t, tr, tp, SoI, 8)
	worse, total := 0, 0
	for i := range base.FCT {
		if math.IsNaN(base.FCT[i]) || math.IsNaN(soi.FCT[i]) {
			continue
		}
		total++
		if soi.FCT[i] < base.FCT[i]-1e-6 {
			// A flow can finish faster under SoI only if contention
			// differs (other flows were delayed past it). Rare but legal;
			// count it.
			worse++
		}
	}
	if total == 0 {
		t.Fatal("no comparable flows")
	}
	if frac := float64(worse) / float64(total); frac > 0.10 {
		t.Errorf("%.1f%% of flows faster under SoI; transport model suspect", frac*100)
	}
}

func TestDeterminism(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	a := run(t, tr, tp, BH2KSwitch, 9)
	b := run(t, tr, tp, BH2KSwitch, 9)
	if a.Energy != b.Energy || a.Moves != b.Moves || a.Wakeups != b.Wakeups {
		t.Errorf("non-deterministic: %+v vs %+v", a.Energy, b.Energy)
	}
	for i := range a.FCT {
		af, bf := a.FCT[i], b.FCT[i]
		if math.IsNaN(af) != math.IsNaN(bf) || (!math.IsNaN(af) && af != bf) {
			t.Fatalf("flow %d FCT differs: %v vs %v", i, af, bf)
		}
	}
}

func TestBackupAblation(t *testing.T) {
	tr, tp := smallScenario(t, 10)
	withB := run(t, tr, tp, BH2KSwitch, 10)
	noB := run(t, tr, tp, BH2NoBackup, 10)
	// Both must work; the paper's finding is that backup costs nothing in
	// online gateways (§5.2.2) — allow generous slack on a small scenario.
	mw, mn := MeanOver(withB.OnlineGWs, 0, 2), MeanOver(noB.OnlineGWs, 0, 2)
	if math.Abs(mw-mn) > 2.5 {
		t.Errorf("backup changed online gateways drastically: %v vs %v", mw, mn)
	}
}

func TestKSwitchReducesCardsVsFixed(t *testing.T) {
	tr, tp := smallScenario(t, 11)
	plain := run(t, tr, tp, SoI, 11)
	ksw := run(t, tr, tp, SoIKSwitch, 11)
	full := run(t, tr, tp, SoIFullSwitch, 11)
	mp, mk, mf := MeanOver(plain.OnlineCards, 0, 2), MeanOver(ksw.OnlineCards, 0, 2), MeanOver(full.OnlineCards, 0, 2)
	if mk > mp+1e-9 {
		t.Errorf("k-switch (%v) worse than fixed (%v)", mk, mp)
	}
	if mf > mk+1e-9 {
		t.Errorf("full switch (%v) worse than k-switch (%v)", mf, mk)
	}
}

func TestGatewayOnTimeBounded(t *testing.T) {
	tr, tp := smallScenario(t, 12)
	res := run(t, tr, tp, BH2KSwitch, 12)
	for g, ot := range res.GatewayOnTime {
		if ot < 0 || ot > tr.Cfg.Duration+1 {
			t.Errorf("gateway %d on-time %v outside [0,%v]", g, ot, tr.Cfg.Duration)
		}
	}
}

func TestSavingsSeriesAndISPShare(t *testing.T) {
	tr, tp := smallScenario(t, 13)
	base := run(t, tr, tp, NoSleep, 13)
	bh := run(t, tr, tp, BH2KSwitch, 13)
	sav := SavingsSeries(bh, base)
	share := ISPShareSeries(bh, base)
	if len(sav) != bh.PowerW.Bins() || len(share) != len(sav) {
		t.Fatal("series length mismatch")
	}
	anyPos := false
	for i := range sav {
		if sav[i] > 1.0000001 || share[i] < 0 || share[i] > 1.0000001 {
			t.Fatalf("bin %d: savings %v share %v out of range", i, sav[i], share[i])
		}
		if sav[i] > 0 {
			anyPos = true
		}
	}
	if !anyPos {
		t.Error("no positive savings bins")
	}
}

func TestBH2ParamsPropagate(t *testing.T) {
	tr, tp := smallScenario(t, 14)
	p := bh2.DefaultParams()
	p.Low, p.High = 0.02, 0.9 // nearly-never hitch-hike
	res, err := Run(Config{Trace: tr, Topo: tp, Scheme: BH2KSwitch, Seed: 14, K: 2, BH2: p})
	if err != nil {
		t.Fatal(err)
	}
	resDef := run(t, tr, tp, BH2KSwitch, 14)
	if res.Moves > resDef.Moves {
		t.Errorf("tight thresholds moved more (%d) than defaults (%d)", res.Moves, resDef.Moves)
	}
}

func TestCentralizedSchemeBetweenBH2AndOptimal(t *testing.T) {
	tr, tp := smallScenario(t, 15)
	base := run(t, tr, tp, NoSleep, 15)
	bh := run(t, tr, tp, BH2KSwitch, 15)
	cen := run(t, tr, tp, Centralized, 15)
	if cen.Resolves == 0 {
		t.Fatal("centralized never resolved")
	}
	// Coordination must not do worse than the distributed heuristic by a
	// meaningful margin (small scenarios are noisy; allow 5 points).
	if cen.SavingsVs(base) < bh.SavingsVs(base)-0.05 {
		t.Errorf("centralized %.2f well below BH2 %.2f", cen.SavingsVs(base), bh.SavingsVs(base))
	}
	if got := Centralized.String(); got != "centralized+k-switch" {
		t.Errorf("name = %q", got)
	}
}

func TestRandomWakeDelays(t *testing.T) {
	tr, tp := smallScenario(t, 16)
	fixed, err := Run(Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 16, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	random, err := Run(Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 16, K: 2, RandomWake: true})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Energy == random.Energy {
		t.Error("random wake delays had no effect at all")
	}
	// Same order of magnitude: the wake distribution has mean ~60 s too.
	rf, rr := fixed.SavingsVs(fixed), random.SavingsVs(fixed)
	if rf != 0 || rr < -0.5 || rr > 0.5 {
		t.Errorf("random-wake savings delta out of band: %v", rr)
	}
}

func TestDecisionReasonsExposed(t *testing.T) {
	tr, tp := smallScenario(t, 17)
	res := run(t, tr, tp, BH2KSwitch, 17)
	total := 0
	for _, n := range res.DecisionReasons {
		total += n
	}
	if total == 0 {
		t.Error("no decision reasons recorded")
	}
}

func TestLargeScaleDSLAM(t *testing.T) {
	// §4.1 notes real DSLAMs serve 1000+ ports. Exercise the simulator at
	// that scale: 20 cards of 48 ports, 800 gateways, 2400 clients, one
	// peak hour. Checks that the engine and the k-switch machinery scale
	// and that aggregation still materializes.
	if testing.Short() {
		t.Skip("large-scale run")
	}
	var busy trace.Profile
	for i := range busy {
		busy[i] = 0.5
	}
	tr, err := trace.Generate(trace.Config{
		Clients: 2400, APs: 800, Profile: busy, Seed: 31, Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.OverlapGraph(800, 5.6, 31)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	shelf := dsl.DSLAM{Cards: 20, PortsPerCard: 48}
	base, err := Run(Config{Trace: tr, Topo: tp, Scheme: NoSleep, Seed: 31, DSLAM: shelf, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	bh, err := Run(Config{Trace: tr, Topo: tp, Scheme: BH2KSwitch, Seed: 31, DSLAM: shelf, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := bh.SavingsVs(base); s <= 0.05 {
		t.Errorf("large-scale BH2 savings = %.1f%%, expected positive aggregation", s*100)
	}
	online := MeanOver(bh.OnlineGWs, 0.5, 1)
	if online >= 800 {
		t.Errorf("no gateways asleep at scale: %v online", online)
	}
	if cards := MeanOver(bh.OnlineCards, 0.5, 1); cards > 20 {
		t.Errorf("online cards %v exceed shelf", cards)
	}
}
