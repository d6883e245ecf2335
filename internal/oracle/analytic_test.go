package oracle

import (
	"math"
	"sort"
	"testing"

	"insomnia/internal/analytic"
	"insomnia/internal/dsl"
	"insomnia/internal/power"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// The analytic legs: hand-built Poisson-keepalive scenarios where the
// closed forms in internal/analytic are exact in stationarity, confronted
// with the engine's measured results. Tolerances are statistical, sized
// at ≳4 standard errors of each estimator over the simulated horizon
// (per-gateway on-fraction has ~560 renewal cycles at these parameters;
// the fleet aggregates 48x that), so a failing check means a real
// modeling disagreement, not noise.

const (
	poissonGWs    = 48          // one full EvalDSLAM shelf, one client per line
	poissonLambda = 1.0 / 600.0 // keepalives per second per client
	poissonDays   = 4.0
	poissonDur    = poissonDays * 86400
)

// poissonConfig hand-builds the scenario: 48 gateways, one client each
// (identity ClientAP), isolated topology, keepalives only — each client
// an independent Poisson process of rate lambda.
func poissonConfig(t *testing.T, scheme sim.Scheme, seed int64) sim.Config {
	t.Helper()
	r := stats.NewRNG(seed, 0x0a111e9)
	var keeps []trace.Packet
	clientAP := make([]int, poissonGWs)
	for c := 0; c < poissonGWs; c++ {
		clientAP[c] = c
		for ts := r.ExpFloat64() / poissonLambda; ts <= poissonDur; ts += r.ExpFloat64() / poissonLambda {
			keeps = append(keeps, trace.Packet{T: ts, Client: int32(c), Bytes: 120})
		}
	}
	sort.SliceStable(keeps, func(i, j int) bool { return keeps[i].T < keeps[j].T })
	tr := &trace.Trace{
		Cfg: trace.Config{
			Clients: poissonGWs, APs: poissonGWs, Duration: poissonDur,
			BackhaulBps: trace.DefaultBackhaulBps, UplinkBps: 512e3,
		},
		ClientAP:   clientAP,
		Keepalives: keeps,
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(&topology.Graph{Adj: make([][]int, poissonGWs)}, clientAP)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Trace: tr, Topo: tp,
		DSLAM: dsl.EvalDSLAM, K: 4,
		Scheme: scheme, Seed: seed,
		IdleTimeout: dsl.IdleTimeoutSeconds,
	}
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestAnalyticSoIPoisson confronts plain SoI with the renewal-reward
// closed forms: gateway on-fraction vs 1 - 1/(λW+e^{λT}), total wakeups
// vs λ·P(sleep)·horizon·gateways, and the fixed-fabric card-sleep
// fraction vs the §4.1 product (1-p)^m with p the per-line active
// probability. The same run is also cross-checked bit-exactly against
// the reference interpreter, closing the engine ↔ reference ↔ analytic
// triangle on one scenario.
func TestAnalyticSoIPoisson(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day analytic scenario")
	}
	cfg := poissonConfig(t, sim.SoI, 41)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pSleep, err := analytic.SoIPoissonSleepProbability(poissonLambda, cfg.IdleTimeout, dsl.WakeSeconds)
	if err != nil {
		t.Fatal(err)
	}
	wantOnFrac := 1 - pSleep

	// Fleet mean on-fraction: ~27k renewal cycles pooled, rel SE ~0.6%.
	var meanOn float64
	for g, on := range res.GatewayOnTime {
		frac := on / poissonDur
		// Per gateway: ~560 cycles, rel SE ~4%; 20% is a ≳4σ gate.
		if e := relErr(frac, wantOnFrac); e > 0.20 {
			t.Errorf("gateway %d on-fraction %.4f vs analytic %.4f (rel err %.3f)", g, frac, wantOnFrac, e)
		}
		meanOn += frac
	}
	meanOn /= poissonGWs
	t.Logf("on-fraction: measured %.4f analytic %.4f", meanOn, wantOnFrac)
	if e := relErr(meanOn, wantOnFrac); e > 0.03 {
		t.Errorf("fleet mean on-fraction %.4f vs analytic %.4f (rel err %.3f)", meanOn, wantOnFrac, e)
	}

	// Wakeups: one per renewal cycle, λ·P(sleep) per second per gateway.
	rate, err := analytic.SoIPoissonWakeupRate(poissonLambda, cfg.IdleTimeout, dsl.WakeSeconds)
	if err != nil {
		t.Fatal(err)
	}
	wantWakeups := rate * poissonDur * poissonGWs
	t.Logf("wakeups: measured %d analytic %.0f", res.Wakeups, wantWakeups)
	if e := relErr(float64(res.Wakeups), wantWakeups); e > 0.03 {
		t.Errorf("wakeups %d vs analytic %.0f (rel err %.3f)", res.Wakeups, wantWakeups, e)
	}

	// Fixed fabric: a card sleeps iff all m=12 of its lines sleep; lines
	// are independent here, so the stationary card-sleep fraction is
	// (1-p)^m with p = wantOnFrac. Card states decorrelate on the ~12 min
	// cycle scale, leaving ~500 effective samples per card — the mean over
	// 4 cards carries ~10% rel SE, so gate at 35%.
	wantCardSleep := analytic.CardSleepNoSwitch(dsl.EvalDSLAM.PortsPerCard, wantOnFrac)
	var meanCardSleep float64
	for _, on := range res.CardOnTime {
		meanCardSleep += 1 - on/poissonDur
	}
	meanCardSleep /= float64(len(res.CardOnTime))
	t.Logf("card sleep fraction: measured %.4f analytic %.4f", meanCardSleep, wantCardSleep)
	if e := relErr(meanCardSleep, wantCardSleep); e > 0.35 {
		t.Errorf("mean card sleep fraction %.4f vs analytic %.4f (rel err %.3f)", meanCardSleep, wantCardSleep, e)
	}

	// Close the triangle: the exact reference must agree with this same
	// run bit for bit.
	exp, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(exp, res); len(d) != 0 {
		t.Errorf("reference diverged on the Poisson scenario: %v", d)
	}
}

// TestAnalyticKSwitchBracket checks the k-switch scheme against Eq 2's
// idealization: measured sleeping cards must land between the no-switch
// product (switching can only help) and the Eq 2 sum (a static packing
// ideal the wake-only remap policy cannot beat), with a small statistical
// margin on each side.
func TestAnalyticKSwitchBracket(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day analytic scenario")
	}
	cfg := poissonConfig(t, sim.SoIKSwitch, 43)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pSleep, err := analytic.SoIPoissonSleepProbability(poissonLambda, cfg.IdleTimeout, dsl.WakeSeconds)
	if err != nil {
		t.Fatal(err)
	}
	pActive := 1 - pSleep
	m := dsl.EvalDSLAM.PortsPerCard

	var sleeping float64 // mean sleeping cards over time
	for _, on := range res.CardOnTime {
		sleeping += 1 - on/poissonDur
	}
	lo := float64(dsl.EvalDSLAM.Cards) * analytic.CardSleepNoSwitch(m, pActive)
	hi, err := analytic.ExpectedSleepingCards(cfg.K, m, pActive)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("k-switch sleeping cards: measured %.3f bracket [%.3f, %.3f]", sleeping, lo, hi)
	if sleeping < lo*0.90 || sleeping > hi*1.10 {
		t.Errorf("k-switch mean sleeping cards %.3f outside bracket [%.3f, %.3f] (no-switch, Eq 2)", sleeping, lo, hi)
	}
	if sleeping <= lo {
		t.Errorf("k-switch (%.3f sleeping cards) failed to beat no-switch (%.3f): switching bought nothing", sleeping, lo)
	}
}

// TestAnalyticFullSwitchCards checks the full-switch scheme against the
// exact stationary expectation E[ceil(A/m)], A ~ Binomial(n, p): repack
// keeps exactly ceil(active/m) cards awake at every instant, so the
// time-average awake-card count must converge on the expectation.
func TestAnalyticFullSwitchCards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day analytic scenario")
	}
	cfg := poissonConfig(t, sim.SoIFullSwitch, 47)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pSleep, err := analytic.SoIPoissonSleepProbability(poissonLambda, cfg.IdleTimeout, dsl.WakeSeconds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FullSwitchExpectedAwakeCards(poissonGWs, dsl.EvalDSLAM.PortsPerCard, 1-pSleep)
	if err != nil {
		t.Fatal(err)
	}
	var awake float64
	for _, on := range res.CardOnTime {
		awake += on / poissonDur
	}
	t.Logf("full-switch awake cards: measured %.3f analytic %.3f", awake, want)
	if e := relErr(awake, want); e > 0.10 {
		t.Errorf("full-switch mean awake cards %.3f vs analytic %.3f (rel err %.3f)", awake, want, e)
	}
	// The floor-form bound in internal/analytic must also hold: at least
	// floor(n(1-p)/m) cards sleep on average.
	floorSleep := analytic.FullSwitchSleepingCards(poissonGWs, dsl.EvalDSLAM.PortsPerCard, 1-pSleep)
	if sleeping := float64(dsl.EvalDSLAM.Cards) - awake; sleeping < float64(floorSleep)*0.95 {
		t.Errorf("full-switch sleeping cards %.3f below the floor bound %d", sleeping, floorSleep)
	}

	// And the §4.1 gateway-side identity: energy split must satisfy
	// UserJ ≈ GatewayWatts · Σ on-time here too.
	var onSum float64
	for _, on := range res.GatewayOnTime {
		onSum += on
	}
	if e := relErr(res.Energy.UserJ, power.GatewayWatts*onSum); e > 1e-9 {
		t.Errorf("user energy %.6g vs %.6g (rel err %g)", res.Energy.UserJ, power.GatewayWatts*onSum, e)
	}
}
