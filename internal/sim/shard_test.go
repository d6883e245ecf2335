package sim

import (
	"runtime"
	"testing"

	"insomnia/internal/dsl"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// runShards executes one config at a given shard count and returns the
// result fingerprint (the same digest the golden corpus pins: every metric
// including float bit patterns).
func runShards(t *testing.T, cfg Config, shards int) string {
	t.Helper()
	cfg.Shards = shards
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(res)
}

// TestShardDeterminism pins the tentpole contract: results are
// byte-identical to the serial engine at every shard count, for every
// scheme family — the sharded engine (NoSleep, SoI) and the schemes that
// take the serial engine at any shard count (BH2's shared decision RNG,
// the coordinated schemes' global re-solves).
func TestShardDeterminism(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	schemes := []Scheme{NoSleep, SoI, SoIKSwitch, SoIFullSwitch, BH2KSwitch, Optimal, Centralized}
	for _, sc := range schemes {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 9, K: 2}
			want := runShards(t, cfg, 0) // classic serial engine
			for _, n := range []int{1, 2, 3, 8} {
				if got := runShards(t, cfg, n); got != want {
					t.Errorf("shards=%d diverges from serial: %s != %s", n, got, want)
				}
			}
		})
	}
}

// TestShardDeterminismRandomWake covers the forced downgrade: with
// RandomWake the wake delays come from one shared stream in global event
// order, so a shard-local scheme must fall back to the serial engine and
// still match bit-for-bit.
func TestShardDeterminismRandomWake(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	cfg := Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 9, K: 2, RandomWake: true}
	want := runShards(t, cfg, 0)
	for _, n := range []int{2, 8} {
		if got := runShards(t, cfg, n); got != want {
			t.Errorf("shards=%d diverges from serial under RandomWake", n)
		}
	}
}

// cityScenario builds a reduced grid-city fixture: big enough that shard
// lanes carry real concurrent work (128 gateways across a metro head-end),
// small enough for the race detector to chew through on every push.
func cityScenario(t *testing.T, seed int64) (*trace.Trace, *topology.Topology, dsl.DSLAM) {
	t.Helper()
	cfg := trace.DefaultCityConfig(seed)
	cfg.Clients, cfg.APs, cfg.Duration = 512, 128, 900
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.GridCity(cfg.APs, topology.DefaultMeanInRange, seed)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tp, dsl.DSLAM{Cards: 12, PortsPerCard: 12}
}

// TestShardedCity is the reduced city case the CI race job runs: a
// multi-shard grid-city SoI simulation (shard lanes + sink replay) checked
// against the serial engine.
func TestShardedCity(t *testing.T) {
	tr, tp, shelf := cityScenario(t, 5)
	t.Run(SoI.String(), func(t *testing.T) {
		cfg := Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 5, DSLAM: shelf, K: 4}
		want := runShards(t, cfg, 0)
		for _, n := range []int{3, 4, 8} {
			if got := runShards(t, cfg, n); got != want {
				t.Errorf("shards=%d diverges from serial on grid city", n)
			}
		}
	})
}

// TestShardedRunAllocatesLikeSerial pins that shard lanes read the shared
// trace instead of keeping their own index of it: one sharded run
// allocates within a few percent of the serial run at every shard count.
func TestShardedRunAllocatesLikeSerial(t *testing.T) {
	tr, tp, shelf := cityScenario(t, 5)
	cfg := Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 5, DSLAM: shelf, K: 4}
	alloc := func(shards int) float64 {
		cfg.Shards = shards
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	serial := alloc(0)
	for _, n := range []int{2, 4, 8} {
		if got := alloc(n); got > 1.08*serial {
			t.Errorf("shards=%d allocates %.0f bytes, %.3f× the serial run's %.0f", n, got, got/serial, serial)
		}
	}
}

// TestLaneLayout pins which runs take the sharded engine: at Shards 4 only
// the shard-local schemes (no-sleep and the SoI family) build four lanes
// and a worker pool. BH², the coordinated schemes and SoI under RandomWake
// build the single serial lane and no pool. Either way the lanes tile the
// gateways in order, laneOf finds each gateway's lane, and the main lane is
// the serial lane or the coordinator.
func TestLaneLayout(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	for _, tc := range []struct {
		scheme     Scheme
		randomWake bool
		lanes      int
	}{
		{NoSleep, false, 4},
		{SoI, false, 4},
		{SoIKSwitch, false, 4},
		{SoIFullSwitch, false, 4},
		{SoI, true, 1},
		{BH2KSwitch, false, 1},
		{BH2FullSwitch, false, 1},
		{BH2NoBackup, false, 1},
		{Optimal, false, 1},
		{Centralized, false, 1},
	} {
		cfg, err := Config{Trace: tr, Topo: tp, Scheme: tc.scheme, Seed: 9, K: 2, Shards: 4, RandomWake: tc.randomWake}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantPool := tc.lanes > 1
		if len(s.shards) != tc.lanes || (s.pool != nil) != wantPool {
			t.Errorf("%v randomwake=%v: %d lanes, pool %v; want %d lanes, pool %v",
				tc.scheme, tc.randomWake, len(s.shards), s.pool != nil, tc.lanes, wantPool)
		}
		next := 0
		for i, sh := range s.shards {
			if sh.lo != next || sh.hi < sh.lo {
				t.Errorf("%v: lane %d covers [%d, %d), want it to start at %d", tc.scheme, i, sh.lo, sh.hi, next)
			}
			next = sh.hi
		}
		if next != len(s.gws) {
			t.Errorf("%v: lanes end at gateway %d of %d", tc.scheme, next, len(s.gws))
		}
		for g := range s.gws {
			if sh := s.laneOf(g); !sh.owns(g) {
				t.Errorf("%v: laneOf(%d) = [%d, %d)", tc.scheme, g, sh.lo, sh.hi)
			}
		}
		if (s.main == &s.shards[0]) != (tc.lanes == 1) {
			t.Errorf("%v: main lane is shards[0]: %v, with %d lanes", tc.scheme, s.main == &s.shards[0], tc.lanes)
		}
	}
}

// shardedHandSim builds a hand-rolled sharded sim: four clients homed two
// per gateway pair, keepalives every 5 s, two shard lanes.
func shardedHandSim(t *testing.T, scheme Scheme, shards int) *sim {
	t.Helper()
	var keeps []trace.Packet
	for ts := 10.0; ts < 3900; ts += 5 {
		keeps = append(keeps, trace.Packet{T: ts, Client: int32(int(ts) % 4), Bytes: 100})
	}
	tr := &trace.Trace{
		Cfg: trace.Config{
			Clients: 4, APs: 2, Duration: 4000,
			BackhaulBps: 6e6, UplinkBps: 512e3,
		},
		ClientAP:   []int{0, 0, 1, 1},
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
	cfg, err := Config{Trace: tr, Topo: tp, Scheme: scheme, Seed: 1, K: 2, Shards: shards}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedStepSteadyStateAllocs pins the zero-allocation contract on the
// sharded engine's epoch loop: once heaps, sink queues and estimator rings
// have reached steady-state capacity, a full epoch — parallel shard phase,
// sink replay, tick — allocates nothing. The pool's rendezvous is plain
// channel values and a WaitGroup, so nothing on the barrier path allocates
// either.
func TestShardedStepSteadyStateAllocs(t *testing.T) {
	s := shardedHandSim(t, SoI, 2)
	if len(s.shards) != 2 {
		t.Fatalf("expected 2 shard lanes, got %d", len(s.shards))
	}
	s.pool.start()
	defer s.pool.stop()
	for i := 0; i < 1000; i++ {
		if !s.shardedStep() {
			t.Fatal("trace exhausted during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.shardedStep()
	})
	if allocs != 0 {
		t.Fatalf("steady-state sharded epoch allocates %.2f times, want 0", allocs)
	}
}

// TestShardsExceedingGateways clamps: more shards than gateways must not
// break (each lane simply gets at most one gateway).
func TestShardsExceedingGateways(t *testing.T) {
	tr, tp := smallScenario(t, 3)
	cfg := Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 3, K: 2}
	want := runShards(t, cfg, 0)
	if got := runShards(t, cfg, 64); got != want {
		t.Error("shards > gateways diverges from serial")
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	tr, tp := smallScenario(t, 3)
	if _, err := Run(Config{Trace: tr, Topo: tp, Scheme: SoI, Seed: 3, K: 2, Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
}
