package sim

import (
	"math"
	"slices"
	"testing"

	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// testFailurePlan is the failure scenario the golden corpus and the shard
// determinism table share: one mid-run crash with a drawn reboot, an area
// outage over half the gateways, and a crash nested inside the outage
// window (exercising the overlap depth counter).
func testFailurePlan() FailurePlan {
	return FailurePlan{
		Crashes: []GatewayCrash{
			{At: 1800, Gateway: 2},
			{At: 4000, Gateway: 5, RebootSec: 120},
		},
		Outages: []OutageWindow{{Start: 3600, DurationSec: 900, Gateways: []int{4, 5, 6, 7}}},
	}
}

func TestFailurePlanValidation(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	bad := []FailurePlan{
		{Crashes: []GatewayCrash{{At: -1, Gateway: 0}}},
		{Crashes: []GatewayCrash{{At: 10, Gateway: 99}}},
		{Crashes: []GatewayCrash{{At: 10, Gateway: 0, RebootSec: -5}}},
		{Crashes: []GatewayCrash{{At: math.NaN(), Gateway: 0}}},
		{Outages: []OutageWindow{{Start: 10, DurationSec: 0, Gateways: []int{0, 1}}}},
		{Outages: []OutageWindow{{Start: 10, DurationSec: 60}}},
		{Outages: []OutageWindow{{Start: 10, DurationSec: 60, Gateways: []int{0, 99}}}},
		{Crashes: []GatewayCrash{{At: 10, Gateway: 0}}, RebootMeanSec: -1},
		{Crashes: []GatewayCrash{{At: 10, Gateway: 0}}, RebootSigma: -1},
	}
	for i, p := range bad {
		if _, err := Run(Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 9, Failures: p}); err == nil {
			t.Errorf("plan %d: invalid failure plan accepted", i)
		}
	}
	// The zero plan must not trip validation or allocate failure state.
	if _, err := Run(Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 9}); err != nil {
		t.Fatalf("zero plan rejected: %v", err)
	}
}

func TestFailureScheduleOrder(t *testing.T) {
	p, err := FailurePlan{
		Crashes: []GatewayCrash{{At: 100, Gateway: 1, RebootSec: 50}, {At: 100, Gateway: 0, RebootSec: 100}},
		Outages: []OutageWindow{{Start: 50, DurationSec: 100, Gateways: []int{2, 3}}},
	}.normalized(4)
	if err != nil {
		t.Fatal(err)
	}
	sched := buildFailSchedule(p, 1)
	if len(sched) != 8 {
		t.Fatalf("schedule has %d entries, want 8", len(sched))
	}
	for i := 1; i < len(sched); i++ {
		a, b := sched[i-1], sched[i]
		if a.t > b.t {
			t.Fatalf("schedule out of time order at %d: %v after %v", i, b.t, a.t)
		}
		if a.t == b.t && a.up && !b.up {
			t.Fatalf("recovery sorted before same-time failure at %d", i)
		}
	}
	// Outage recoveries include a drawn reboot: strictly after power return.
	for _, fe := range sched {
		if fe.up && fe.gw >= 2 && fe.t <= 150 {
			t.Errorf("outage gateway %d recovered at %v, before power-return + reboot", fe.gw, fe.t)
		}
	}
}

// singleGWTopo builds a one-gateway topology for hand-calculable cases.
func singleGWTopo(t *testing.T, tr *trace.Trace) *topology.Topology {
	t.Helper()
	tp, err := topology.FromOverlap(&topology.Graph{Adj: make([][]int, 1)}, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestSingletonPlanClientMap: a full run's trivial quotient carries the
// identity client map only when failures will fold through it; a
// failure-free run builds none.
func TestSingletonPlanClientMap(t *testing.T) {
	tr := &trace.Trace{
		Cfg:      trace.Config{Clients: 3, APs: 1, Duration: 600, BackhaulBps: trace.DefaultBackhaulBps},
		ClientAP: []int{0, 0, 0},
	}
	for _, tc := range []struct {
		failures FailurePlan
		want     []int32
	}{
		{FailurePlan{}, nil},
		{FailurePlan{Crashes: []GatewayCrash{{At: 100, Gateway: 0, RebootSec: 50}}}, []int32{0, 1, 2}},
	} {
		cfg, err := Config{Trace: tr, Topo: singleGWTopo(t, tr), Scheme: SoI, Seed: 1, Failures: tc.failures}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.plan.FullClientOf; !slices.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("failures %+v: FullClientOf = %v, want %v", tc.failures, got, tc.want)
		}
	}
}

// TestStrandedClientRegression pins the stranded/recovery accounting on a
// hand-built scenario: one client keepaliving every 10 s against its home
// gateway, which crashes at t=100 and reboots in exactly 50 s. The crash
// event runs before the same-instant keepalive (heap events win ties over
// trace records), so the keepalive at t=100 is the first dead attempt and
// recovery lands at t=150: 50 s stranded, one reconnect.
func TestStrandedClientRegression(t *testing.T) {
	var keeps []trace.Packet
	for ts := 10.0; ts < 590; ts += 10 {
		keeps = append(keeps, trace.Packet{T: ts, Client: 0, Bytes: 100})
	}
	tr := &trace.Trace{
		Cfg:        trace.Config{Clients: 1, APs: 1, Duration: 600, BackhaulBps: trace.DefaultBackhaulBps},
		Keepalives: keeps,
		ClientAP:   []int{0},
	}
	res, err := Run(Config{
		Trace: tr, Topo: singleGWTopo(t, tr), Scheme: SoI, Seed: 1,
		Failures: FailurePlan{Crashes: []GatewayCrash{{At: 100, Gateway: 0, RebootSec: 50}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Errorf("Failures = %d, want 1", res.Failures)
	}
	if res.StrandedSeconds != 50 {
		t.Errorf("StrandedSeconds = %v, want 50 (stranded 100..150)", res.StrandedSeconds)
	}
	if res.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want 1", res.Reconnects)
	}
	if res.MeanRecoveryS != 50 {
		t.Errorf("MeanRecoveryS = %v, want 50", res.MeanRecoveryS)
	}
	if want := 1 - 50.0/600; math.Abs(res.Availability-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v", res.Availability, want)
	}
	if len(res.GatewayDownTime) != 1 || res.GatewayDownTime[0] != 50 {
		t.Errorf("GatewayDownTime = %v, want [50]", res.GatewayDownTime)
	}
	// The stranded series must see the client in bins [110,150).
	if got := res.StrandedClients.MeanAt(120); got != 1 {
		t.Errorf("stranded series at 120 s = %v, want 1", got)
	}
	if got := res.StrandedClients.MeanAt(300); got != 0 {
		t.Errorf("stranded series at 300 s = %v, want 0", got)
	}
}

// TestFailureStrandedToHorizon covers the unrecovered tail: a crash whose
// reboot extends past the end of the trace leaves the client stranded to
// the horizon with no reconnect.
func TestFailureStrandedToHorizon(t *testing.T) {
	tr := &trace.Trace{
		Cfg:        trace.Config{Clients: 1, APs: 1, Duration: 300, BackhaulBps: trace.DefaultBackhaulBps},
		Keepalives: []trace.Packet{{T: 50, Client: 0, Bytes: 100}, {T: 150, Client: 0, Bytes: 100}},
		ClientAP:   []int{0},
	}
	res, err := Run(Config{
		Trace: tr, Topo: singleGWTopo(t, tr), Scheme: SoI, Seed: 1,
		Failures: FailurePlan{Crashes: []GatewayCrash{{At: 100, Gateway: 0, RebootSec: 1e6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StrandedSeconds != 150 {
		t.Errorf("StrandedSeconds = %v, want 150 (stranded 150..300)", res.StrandedSeconds)
	}
	if res.Reconnects != 0 {
		t.Errorf("Reconnects = %d, want 0", res.Reconnects)
	}
	if res.GatewayDownTime[0] != 200 {
		t.Errorf("GatewayDownTime = %v, want 200 (down 100..300)", res.GatewayDownTime[0])
	}
}

// TestFailureAbortsFlows: a flow in flight when the power cut lands is
// aborted — no completion time, counted in FlowsAborted, its client
// stranded from the cut itself.
func TestFailureAbortsFlows(t *testing.T) {
	tr := &trace.Trace{
		Cfg: trace.Config{Clients: 1, APs: 1, Duration: 600, BackhaulBps: trace.DefaultBackhaulBps},
		// 60 MB at 6 Mbps is ~80 s of service: started at 20, still in
		// flight at the crash (100).
		Flows:    []trace.Flow{{Start: 20, Client: 0, Bytes: 60e6}},
		ClientAP: []int{0},
	}
	res, err := Run(Config{
		Trace: tr, Topo: singleGWTopo(t, tr), Scheme: SoI, Seed: 1,
		Failures: FailurePlan{Crashes: []GatewayCrash{{At: 100, Gateway: 0, RebootSec: 50}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsAborted != 1 {
		t.Errorf("FlowsAborted = %d, want 1", res.FlowsAborted)
	}
	if !math.IsNaN(res.FCT[0]) {
		t.Errorf("aborted flow has FCT %v, want NaN", res.FCT[0])
	}
	// The flow's client was actively served: stranded from the cut (100)
	// until recovery (150).
	if res.StrandedSeconds != 50 {
		t.Errorf("StrandedSeconds = %v, want 50", res.StrandedSeconds)
	}
}

// TestFailureOverlapDepth: a crash inside an outage window must keep the
// gateway down until the later of the two recoveries, counting a single
// down episode per cause and one contiguous downtime interval.
func TestFailureOverlapDepth(t *testing.T) {
	tr := &trace.Trace{
		Cfg:        trace.Config{Clients: 1, APs: 1, Duration: 1000, BackhaulBps: trace.DefaultBackhaulBps},
		Keepalives: []trace.Packet{{T: 50, Client: 0, Bytes: 100}},
		ClientAP:   []int{0},
	}
	res, err := Run(Config{
		Trace: tr, Topo: singleGWTopo(t, tr), Scheme: SoI, Seed: 1,
		Failures: FailurePlan{
			// Crash at 100 rebooting at 400; outage 200..300 whose drawn
			// reboot ends well before 400: the crash recovery governs.
			Crashes: []GatewayCrash{{At: 100, Gateway: 0, RebootSec: 300}},
			Outages: []OutageWindow{{Start: 200, DurationSec: 100, Gateways: []int{0}}},
			// Constant 1 s reboot keeps the outage recovery inside the
			// crash window deterministically.
			RebootMeanSec: 1, RebootSigma: 1e-9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Errorf("Failures = %d, want 1 (nested causes share the episode)", res.Failures)
	}
	if got := res.GatewayDownTime[0]; math.Abs(got-300) > 1 {
		t.Errorf("GatewayDownTime = %v, want ~300 (down 100..400)", got)
	}
}

// TestShardDeterminismFailures extends the determinism table with the
// failure scenario: crash/outage coordinator events must leave every scheme
// byte-identical across shard counts {1,2,3,8} and against the serial
// engine. (The name keeps it inside the CI race job's -run 'Shard' net.)
func TestShardDeterminismFailures(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	fp := testFailurePlan()
	schemes := []Scheme{NoSleep, SoI, SoIKSwitch, BH2KSwitch, Optimal, Centralized}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 9, K: 2, Failures: fp}
			want := runShards(t, cfg, 0)
			for _, n := range []int{1, 2, 3, 8} {
				if got := runShards(t, cfg, n); got != want {
					t.Errorf("shards=%d diverges from serial under failures: %s != %s", n, got, want)
				}
			}
		})
	}
}

// TestFailureSchemesReact checks the scheme-visible consequences: the
// coordinated controller re-solves on the failure instant (extra resolves
// vs the failure-free run), and every scheme reports sane availability.
func TestFailureSchemesReact(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	fp := testFailurePlan()
	base, err := Run(Config{Trace: tr, Topo: tp, Scheme: Centralized, Seed: 9, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scheme{NoSleep, SoI, BH2KSwitch, Optimal, Centralized} {
		res, err := Run(Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 9, K: 2, Failures: fp})
		if err != nil {
			t.Fatal(err)
		}
		// 1 standalone crash + 4 outage gateways; the second crash nests
		// inside the outage window and extends its episode instead of
		// starting a new one.
		if res.Failures != 5 {
			t.Errorf("%v: Failures = %d, want 5", sc, res.Failures)
		}
		if res.Availability <= 0 || res.Availability > 1 {
			t.Errorf("%v: Availability = %v out of (0,1]", sc, res.Availability)
		}
		if res.GatewayDownTime == nil {
			t.Errorf("%v: GatewayDownTime nil on a failure run", sc)
		}
		if sc == Centralized && res.Resolves <= base.Resolves {
			t.Errorf("centralized: %d resolves with failures, want > %d (failure re-solves)", res.Resolves, base.Resolves)
		}
	}
}
