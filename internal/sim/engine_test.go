package sim

import (
	"math"
	"testing"

	"insomnia/internal/power"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// handSim builds a sim over a hand-written trace so individual engine paths
// can be driven deterministically.
func handSim(t *testing.T, scheme Scheme, flows []trace.Flow, keeps []trace.Packet) *sim {
	t.Helper()
	tr := &trace.Trace{
		Cfg: trace.Config{
			Clients: 4, APs: 2, Duration: 4000,
			BackhaulBps: 6e6, UplinkBps: 512e3,
		},
		ClientAP:   []int{0, 0, 1, 1},
		Flows:      flows,
		Keepalives: keeps,
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	g := &topology.Graph{Adj: [][]int{{1}, {0}}}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{Trace: tr, Topo: tp, Scheme: scheme, Seed: 1, K: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleFlowLifecycle(t *testing.T) {
	// One 750 kB flow at t=100 on a sleeping gateway: wake at 100..160,
	// service 160..161 (6 Mbps = 750 kB/s), idle timeout at 221.
	s := handSim(t, SoI, []trace.Flow{{Start: 100, Client: 0, Bytes: 750000}}, nil)
	s.run()
	fct := s.flows[0].completed - 100
	if !s.flows[0].done {
		t.Fatal("flow never completed")
	}
	if math.Abs(fct-61) > 0.01 {
		t.Errorf("FCT = %v, want 61 (60 s wake + 1 s transfer)", fct)
	}
	// Gateway 0 slept again after its idle timeout; gateway 1 never woke.
	if st := s.gws[0].ctl.State(); st != power.Sleeping {
		t.Errorf("gateway 0 state at end: %v", st)
	}
	if s.gws[1].ctl.Device().Wakeups() != 0 {
		t.Error("gateway 1 woke for no reason")
	}
	// Energy: gateway 0 active from 100 to 221+... wake(60)+transfer(1)+idle(60).
	onTime := s.gws[0].ctl.Device().OnTimeAt(4000)
	if math.Abs(onTime-121) > 0.1 {
		t.Errorf("gateway 0 on-time = %v, want ~121", onTime)
	}
}

func TestProcessorSharingSplitsBackhaul(t *testing.T) {
	// Two 750 kB flows arriving together on an awake gateway share 6 Mbps:
	// both finish at 2 s, not 1 s.
	s := handSim(t, NoSleep, []trace.Flow{
		{Start: 100, Client: 0, Bytes: 750000},
		{Start: 100, Client: 1, Bytes: 750000},
	}, nil)
	s.run()
	for i := 0; i < 2; i++ {
		fct := s.flows[i].completed - 100
		if math.Abs(fct-2) > 0.01 {
			t.Errorf("flow %d FCT = %v, want 2 (shared link)", i, fct)
		}
	}
}

func TestRateCappedStreamServedAtAppRate(t *testing.T) {
	// A 300 kbps stream of 300 kb (37.5 kB) takes 1 s at its own rate even
	// though the link could drain it in 50 ms.
	s := handSim(t, NoSleep, []trace.Flow{
		{Start: 10, Client: 0, Bytes: 37500, Rate: 300e3},
	}, nil)
	s.run()
	fct := s.flows[0].completed - 10
	if math.Abs(fct-1) > 0.01 {
		t.Errorf("stream FCT = %v, want 1 s at the 300 kbps app rate", fct)
	}
}

func TestKeepaliveKeepsGatewayAwake(t *testing.T) {
	// Keepalives every 50 s < 60 s timeout: gateway 0 stays up the whole
	// stretch (the §2.4 insomnia).
	var keeps []trace.Packet
	for ts := 100.0; ts < 2000; ts += 50 {
		keeps = append(keeps, trace.Packet{T: ts, Client: 0, Bytes: 100})
	}
	s := handSim(t, SoI, nil, keeps)
	s.run()
	dev := s.gws[0].ctl.Device()
	if got := dev.Wakeups(); got != 1 {
		t.Errorf("wakeups = %d, want exactly 1 (the first keepalive)", got)
	}
	// Awake from 100 until 1950+60+60.
	if onTime := dev.OnTimeAt(4000); onTime < 1900 {
		t.Errorf("on-time = %v; keepalives failed to hold the gateway up", onTime)
	}
}

func TestLongFlowHoldsGatewayThroughIdleDeadline(t *testing.T) {
	// A 7.5 MB flow takes 10 s... make it long: 75 MB = 100 s at 6 Mbps,
	// longer than the 60 s idle timeout. The gateway must not sleep mid-flow.
	s := handSim(t, SoI, []trace.Flow{{Start: 50, Client: 0, Bytes: 75_000_000}}, nil)
	s.run()
	if !s.flows[0].done {
		t.Fatal("flow never completed")
	}
	fct := s.flows[0].completed - 50
	if math.Abs(fct-160) > 0.5 { // 60 wake + 100 transfer
		t.Errorf("FCT = %v, want ~160", fct)
	}
	if got := s.gws[0].ctl.Device().Wakeups(); got != 1 {
		t.Errorf("gateway slept mid-flow: %d wakeups", got)
	}
}

func TestUplinkFlowsIgnored(t *testing.T) {
	s := handSim(t, SoI, []trace.Flow{{Start: 100, Client: 0, Bytes: 1000, Up: true}}, nil)
	s.run()
	if s.flows[0].done {
		t.Error("uplink flow was simulated")
	}
	if s.gws[0].ctl.Device().Wakeups() != 0 {
		t.Error("uplink flow woke a gateway")
	}
}

func TestOptimalMigratesFlows(t *testing.T) {
	// Under Optimal, client 0's long flow starts at its home (gateway 0);
	// the per-minute resolve will consolidate. The flow must complete with
	// zero wake stalls (WakeDelay 0) and the run must end with at most one
	// gateway carrying everything.
	flows := []trace.Flow{
		{Start: 30, Client: 0, Bytes: 30_000_000}, // 40 s at full rate
		{Start: 35, Client: 2, Bytes: 30_000_000}, // other AP
		{Start: 200, Client: 1, Bytes: 750_000},
		{Start: 210, Client: 3, Bytes: 750_000},
	}
	s := handSim(t, Optimal, flows, nil)
	s.run()
	for i := range flows {
		if !s.flows[i].done {
			t.Fatalf("flow %d incomplete under Optimal", i)
		}
	}
	if s.resolves == 0 {
		t.Fatal("optimal never resolved")
	}
}

func TestCentralizedRespectsWakeDelay(t *testing.T) {
	// Centralized wakes gateways with the real 60 s delay: a flow whose
	// gateway the controller just opened still waits.
	s := handSim(t, Centralized, []trace.Flow{{Start: 100, Client: 0, Bytes: 750000}}, nil)
	s.run()
	if !s.flows[0].done {
		t.Fatal("flow incomplete")
	}
	if fct := s.flows[0].completed - 100; fct < 60 {
		t.Errorf("FCT = %v; centralized bypassed the wake delay", fct)
	}
}

func TestCardFollowsLineState(t *testing.T) {
	// SoI: when gateway 0 wakes, its line card powers on; when both
	// gateways sleep, all cards sleep.
	s := handSim(t, SoI, []trace.Flow{{Start: 100, Client: 0, Bytes: 750000}}, nil)
	s.run()
	for cd, on := range s.cardOn {
		if on {
			t.Errorf("card %d still on at end", cd)
		}
	}
	// The card hosting gateway 0's line consumed energy during the episode.
	var cardJ float64
	for _, cd := range s.cards {
		cardJ += cd.EnergyAt(4000)
	}
	if cardJ <= 0 {
		t.Error("no card energy recorded despite an active line")
	}
}

// TestWakeHandsBackExactlyWaitingClients pins the pending-home hand-back:
// completing a gateway's wake must reassign exactly the clients that were
// waiting for that gateway — no scan side effects on clients waiting for a
// different home or not waiting at all.
func TestWakeHandsBackExactlyWaitingClients(t *testing.T) {
	// handSim: clients 0,1 homed at gateway 0; clients 2,3 at gateway 1.
	s := handSim(t, BH2KSwitch, nil, nil)
	// Clients 0 and 1 ride gateway 1; only 0 is flagged pending-home.
	s.clients[0].assigned = 1
	s.clients[1].assigned = 1
	s.markPendingHome(0)
	// Client 3 rides gateway 0 and waits for gateway 1 — a different home.
	s.clients[3].assigned = 0
	s.markPendingHome(3)
	if got := len(s.gws[0].pending); got != 1 {
		t.Fatalf("gateway 0 pending list has %d entries, want 1", got)
	}

	// Wake gateway 0 and complete the wake.
	s.main.now = 100
	s.touch(s.main, &s.gws[0], s.main.now)
	s.main.now = s.gws[0].ctl.NextTransition()
	s.gwCheck(s.main, &s.gws[0])

	if cl := s.clients[0]; cl.assigned != 0 || cl.pendingHome || cl.pendingPos != -1 {
		t.Errorf("waiting client not handed back: %+v", cl)
	}
	if cl := s.clients[1]; cl.assigned != 1 || cl.pendingHome {
		t.Errorf("non-waiting client disturbed: %+v", cl)
	}
	if cl := s.clients[3]; cl.assigned != 0 || !cl.pendingHome {
		t.Errorf("client waiting for another gateway disturbed: %+v", cl)
	}
	if got := len(s.gws[0].pending); got != 0 {
		t.Errorf("gateway 0 pending list not drained: %d entries", got)
	}
	if got := len(s.gws[1].pending); got != 1 {
		t.Errorf("gateway 1 pending list corrupted: %d entries", got)
	}
}

// TestPendingHomeUnmarkSwapRemove exercises the O(1) removal's position
// bookkeeping with several clients queued on one gateway.
func TestPendingHomeUnmarkSwapRemove(t *testing.T) {
	s := handSim(t, BH2KSwitch, nil, nil)
	// Both gateway-0 clients queue, then the first leaves (e.g. a Move).
	s.markPendingHome(0)
	s.markPendingHome(1)
	s.unmarkPendingHome(0)
	if got := s.gws[0].pending; len(got) != 1 || got[0] != 1 {
		t.Fatalf("pending list after swap-remove = %v, want [1]", got)
	}
	if s.clients[1].pendingPos != 0 {
		t.Fatalf("moved client's position not updated: %d", s.clients[1].pendingPos)
	}
	// Re-marking an already-pending client must not duplicate it.
	s.markPendingHome(1)
	if got := len(s.gws[0].pending); got != 1 {
		t.Fatalf("duplicate pending entry: %d", got)
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var sh shard
	sh.push(event{t: 5, kind: evTick})
	sh.push(event{t: 1, kind: evTick})
	sh.push(event{t: 5, kind: evGwCheck}) // same time: FIFO by seq
	if sh.h.ev[0].t != 1 {
		t.Fatal("heap not ordered by time")
	}
	first := sh.h.ev[0]
	if first.kind != evTick {
		t.Fatal("wrong head")
	}
}

// TestLoadSamplingOnlyWhenRead pins the tick's load-estimator gate: only
// BH² reads gateway load estimators, so only a BH² run leaves samples in
// them. Serial, parallel-tick and sharded runs go through different
// sampling sites; the goldens pin that the BH² results are unchanged.
func TestLoadSamplingOnlyWhenRead(t *testing.T) {
	tr, tp, shelf := cityScenario(t, 5)
	for _, shards := range []int{0, 2} {
		for _, sc := range []Scheme{NoSleep, SoI, SoIKSwitch, SoIFullSwitch, BH2KSwitch, BH2FullSwitch, BH2NoBackup, Optimal, Centralized} {
			if shards > 0 && (sc == Optimal || sc == Centralized) {
				continue // serial engine at every shard count
			}
			// A resolve every 5 minutes keeps the coordinated schemes'
			// solves (their whole cost here) to three per run.
			cfg, err := Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 5, DSLAM: shelf, K: 4, Shards: shards, OptimalEvery: 300}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.run()
			sampled := 0
			for i := range s.gws {
				if s.gws[i].est.ActiveWithin(s.end, math.Inf(1)) {
					sampled++
				}
			}
			reads := sc == BH2KSwitch || sc == BH2FullSwitch || sc == BH2NoBackup
			if reads && sampled == 0 {
				t.Errorf("%v shards=%d: no gateway's estimator holds a traffic sample", sc, shards)
			}
			if !reads && sampled > 0 {
				t.Errorf("%v shards=%d: %d gateways sampled load nothing reads", sc, shards, sampled)
			}
		}
	}
}
