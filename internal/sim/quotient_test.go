package sim

import (
	"testing"

	"insomnia/internal/quotient"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// The quotient engine's contract is bit-exactness: a collapsed run expanded
// through its QuotientPlan must reproduce the full symmetric run's Result
// exactly — same float bits, not just close values. These tests build both
// runs from the same spec and compare.

type quotientFixture struct {
	full Config
	quot Config
	q    *quotient.Quotient
}

// buildQuotientFixture constructs a symmetric grid-city scenario and its
// collapsed counterpart. forced marks failure-affected full gateways that
// must stay singleton classes.
func buildQuotientFixture(t *testing.T, nGW, clients int, seed int64, forced []bool) *quotientFixture {
	t.Helper()
	g, err := topology.GridCity(nGW, 4.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Flat profile: clients stay active all trace long, so failure windows
	// anywhere in the trace actually strand someone.
	var flat trace.Profile
	for h := range flat {
		flat[h] = 0.5
	}
	tcfg := trace.Config{
		Clients: clients, APs: nGW, Duration: 4 * 3600,
		Profile: flat, Seed: seed,
		Symmetric: true, ClientWeightSigma: 0.8,
	}
	tr, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}

	classes := quotient.Partition(g.NeighborhoodHashes(), quotient.SymmetricCounts(clients, nGW), forced)
	q, err := quotient.Build(classes, nGW, clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Classes) >= nGW {
		t.Fatalf("nothing collapsed: %d classes for %d gateways", len(q.Classes), nGW)
	}
	qcfg := tcfg
	qcfg.Clients = q.Clients
	qcfg.APs = len(q.Classes)
	qtr, err := trace.Generate(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	qtopo, err := topology.FromOverlap(&topology.Graph{Adj: make([][]int, len(q.Classes))}, qtr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	return &quotientFixture{
		full: Config{Trace: tr, Topo: topo, Seed: seed},
		quot: Config{Trace: qtr, Topo: qtopo, Seed: seed, Quotient: &QuotientPlan{
			FullGateways: nGW, FullClients: clients,
			FullHome: q.FullHome, FullClientOf: q.FullClientOf(),
		}},
		q: q,
	}
}

// compareResults asserts bit-exact equality of every Result field a
// collapsed run must reproduce (FCT/FlowStall are per-flow of the
// respective trace and compared at the campaign layer instead).
func compareResults(t *testing.T, full, quot *Result) {
	t.Helper()
	if full.Energy.UserJ != quot.Energy.UserJ || full.Energy.ISPJ != quot.Energy.ISPJ {
		t.Errorf("energy mismatch: full %+v quotient %+v", full.Energy, quot.Energy)
	}
	if full.Wakeups != quot.Wakeups {
		t.Errorf("wakeups: full %d quotient %d", full.Wakeups, quot.Wakeups)
	}
	if len(full.GatewayOnTime) != len(quot.GatewayOnTime) {
		t.Fatalf("GatewayOnTime length: full %d quotient %d", len(full.GatewayOnTime), len(quot.GatewayOnTime))
	}
	for g := range full.GatewayOnTime {
		if full.GatewayOnTime[g] != quot.GatewayOnTime[g] {
			t.Fatalf("GatewayOnTime[%d]: full %v quotient %v", g, full.GatewayOnTime[g], quot.GatewayOnTime[g])
		}
	}
	series := []struct {
		name       string
		fullS, quS interface {
			Bins() int
			MeanAt(int) float64
		}
	}{
		{"PowerW", full.PowerW, quot.PowerW},
		{"UserPowerW", full.UserPowerW, quot.UserPowerW},
		{"ISPPowerW", full.ISPPowerW, quot.ISPPowerW},
		{"OnlineGWs", full.OnlineGWs, quot.OnlineGWs},
		{"OnlineCards", full.OnlineCards, quot.OnlineCards},
	}
	for _, s := range series {
		if s.fullS.Bins() != s.quS.Bins() {
			t.Fatalf("%s bins: full %d quotient %d", s.name, s.fullS.Bins(), s.quS.Bins())
		}
		for i := 0; i < s.fullS.Bins(); i++ {
			if s.fullS.MeanAt(i) != s.quS.MeanAt(i) {
				t.Fatalf("%s bin %d: full %v quotient %v", s.name, i, s.fullS.MeanAt(i), s.quS.MeanAt(i))
			}
		}
	}
	if full.Availability != quot.Availability {
		t.Errorf("availability: full %v quotient %v", full.Availability, quot.Availability)
	}
}

// TestQuotientMatchesFull: each collapsible scheme, full vs collapsed,
// bit-exact expansion.
func TestQuotientMatchesFull(t *testing.T) {
	fx := buildQuotientFixture(t, 36, 144, 9, nil)
	for _, sc := range []Scheme{NoSleep, SoI, SoIFullSwitch} {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			fcfg, qcfg := fx.full, fx.quot
			fcfg.Scheme, qcfg.Scheme = sc, sc
			full, err := Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			quot, err := Run(qcfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, full, quot)
		})
	}
}

// TestQuotientSharded: the collapsed run stays byte-identical to the full
// serial run under the sharded engine at several shard counts.
func TestQuotientSharded(t *testing.T) {
	fx := buildQuotientFixture(t, 36, 144, 11, nil)
	fcfg := fx.full
	fcfg.Scheme = SoI
	full, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		qcfg := fx.quot
		qcfg.Scheme = SoI
		qcfg.Shards = shards
		quot, err := Run(qcfg)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, full, quot)
	}
}

// TestQuotientFailures: failure-affected gateways collapse as forced
// singletons; crash and outage metrics expand bit-exactly, with the
// outage's gateway list remapped to quotient ids (no longer contiguous)
// in full-id order so the reboot draws line up.
func TestQuotientFailures(t *testing.T) {
	const nGW, clients = 36, 144
	affected := []int{2, 3, 4, 7} // outage [2,5) + crash 7
	forced := make([]bool, nGW)
	for _, g := range affected {
		forced[g] = true
	}
	fx := buildQuotientFixture(t, nGW, clients, 13, forced)

	fullPlan := FailurePlan{
		Crashes: []GatewayCrash{{At: 5000, Gateway: 7}},
		Outages: []OutageWindow{{Start: 8000, DurationSec: 1500, Gateways: []int{2, 3, 4}}},
	}
	outList := make([]int, 0, 3)
	for gw := 2; gw < 5; gw++ {
		outList = append(outList, int(fx.q.FullHome[gw]))
	}
	quotPlan := FailurePlan{
		Crashes: []GatewayCrash{{At: 5000, Gateway: int(fx.q.FullHome[7])}},
		Outages: []OutageWindow{{Start: 8000, DurationSec: 1500, Gateways: outList}},
	}

	fcfg, qcfg := fx.full, fx.quot
	fcfg.Scheme, qcfg.Scheme = SoI, SoI
	fcfg.Failures, qcfg.Failures = fullPlan, quotPlan
	full, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	quot, err := Run(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, full, quot)
	if full.Failures != quot.Failures || full.FlowsAborted != quot.FlowsAborted {
		t.Errorf("failure counts: full %d/%d quotient %d/%d",
			full.Failures, full.FlowsAborted, quot.Failures, quot.FlowsAborted)
	}
	if full.StrandedSeconds != quot.StrandedSeconds {
		t.Errorf("stranded seconds: full %v quotient %v", full.StrandedSeconds, quot.StrandedSeconds)
	}
	if full.Reconnects != quot.Reconnects || full.MeanRecoveryS != quot.MeanRecoveryS {
		t.Errorf("recovery: full %d/%v quotient %d/%v",
			full.Reconnects, full.MeanRecoveryS, quot.Reconnects, quot.MeanRecoveryS)
	}
	if full.StrandedSeconds == 0 {
		t.Error("failure scenario stranded nobody; test exercises nothing")
	}
	if len(full.GatewayDownTime) != len(quot.GatewayDownTime) {
		t.Fatalf("GatewayDownTime length: %d vs %d", len(full.GatewayDownTime), len(quot.GatewayDownTime))
	}
	for g := range full.GatewayDownTime {
		if full.GatewayDownTime[g] != quot.GatewayDownTime[g] {
			t.Fatalf("GatewayDownTime[%d]: full %v quotient %v", g, full.GatewayDownTime[g], quot.GatewayDownTime[g])
		}
	}
	for i := 0; i < full.StrandedClients.Bins(); i++ {
		if full.StrandedClients.MeanAt(i) != quot.StrandedClients.MeanAt(i) {
			t.Fatalf("StrandedClients bin %d: full %v quotient %v",
				i, full.StrandedClients.MeanAt(i), quot.StrandedClients.MeanAt(i))
		}
	}
}

// TestQuotientRejectsCoupledSchemes: schemes with cross-gateway coupling
// must refuse a quotient plan instead of producing silently-wrong numbers.
func TestQuotientRejectsCoupledSchemes(t *testing.T) {
	fx := buildQuotientFixture(t, 36, 144, 9, nil)
	for _, sc := range []Scheme{SoIKSwitch, BH2KSwitch, BH2FullSwitch, BH2NoBackup, Optimal, Centralized} {
		cfg := fx.quot
		cfg.Scheme = sc
		if _, err := Run(cfg); err == nil {
			t.Errorf("scheme %v accepted a quotient plan", sc)
		}
	}
	cfg := fx.quot
	cfg.Scheme = SoI
	cfg.RandomWake = true
	if _, err := Run(cfg); err == nil {
		t.Error("RandomWake accepted a quotient plan")
	}
}
