package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"insomnia/internal/bh2"
	"insomnia/internal/kswitch"
	"insomnia/internal/power"
	"insomnia/internal/soi"
	"insomnia/internal/stats"
	"insomnia/internal/wifi"
)

type flowState struct {
	gw        int
	client    int
	rem       float64 // remaining bytes
	capBps    float64 // min(wireless link, application rate) at routing time
	done      bool
	up        bool
	completed float64

	// Wake-stall accounting: time the flow sat waiting for its gateway to
	// finish waking. Fig 9a's paper-comparable variant charges only this
	// to the completion time.
	stallFrom float64 // >=0 while waiting; -1 otherwise
	stalled   float64 // accumulated wake-wait seconds
}

type gateway struct {
	id         int
	ctl        *soi.Controller
	modem      *power.Device
	flows      []int // indices into sim.flows
	lastElapse float64
	complEpoch int64

	sn           wifi.SeqCounter
	byteResidual float64
	est          *wifi.LoadEstimator
	// checkAt is the time of the earliest outstanding evGwCheck for this
	// gateway (+Inf when none): armGwCheck pushes only when the controller's
	// next transition precedes it, so a gateway holds one live check event
	// instead of one per touch (keepalives would otherwise flood the heap
	// with stale checks).
	checkAt float64
	// estResetTick is sim.tickCount as of the estimator's last Reset; the
	// lazy-sampling catch-up on wake uses it to decide whether any tick
	// observed the gateway since (see sim.awaken).
	estResetTick int64

	// pending lists clients waiting for this (their home) gateway to
	// finish waking, so wake completion hands them back in O(|waiting|)
	// instead of scanning every client.
	pending []int

	// Failure injection (failures.go). failDepth counts the overlapping
	// failure causes currently holding the gateway down (a crash inside an
	// outage window nests); the gateway is operative iff it is zero.
	// stranded lists the clients whose last service attempt died on this
	// gateway, so recovery reconnects exactly them in O(|stranded|).
	failDepth int32
	downSince float64
	stranded  []int32

	// Completion-arming cache (scheduleCompletion): valid while schedGen
	// matches flowsGen, which is bumped on every membership change of
	// flows. schedMin is the flow index that completes first;
	// schedAllUncapped records whether every flow was limited by the
	// processor-sharing rate rather than its own cap at the last scan.
	flowsGen         int64
	schedGen         int64
	schedMin         int
	schedAllUncapped bool
}

type client struct {
	home        int
	assigned    int
	pendingHome bool
	pendingPos  int // index in the home gateway's pending list; -1 when absent
}

// sinkOp is one deferred switch-fabric side effect (a line going active or
// inactive). The kswitch policy and the line-card devices are shared across
// gateway shards but are pure sinks — nothing they compute feeds back into
// gateway or client dynamics — so shards queue these ops locally and the
// coordinator replays the merged queues in global time order at each epoch
// barrier (see drainSinks), reproducing the serial call sequence exactly.
type sinkOp struct {
	t    float64
	gw   int32
	wake bool
}

// shard is one lane of the event engine: a contiguous range of gateways
// [lo, hi) together with everything needed to advance them independently —
// a private event heap and sequence counter, private cursors into the trace
// streams, the awake bitset for its gateways and the deferred sink queue.
//
// The serial engine is the one-shard special case: a single lane covering
// every gateway and every trace record (flowOrder/keepOrder nil), with sink
// ops applied inline (deferSinks false). The sharded engine (shard.go) runs
// S lanes plus a coordinator lane that carries only the globally-ordered
// events (ticks, BH2 decisions, re-solves).
type shard struct {
	id     int
	lo, hi int // gateway id range [lo, hi)

	now float64
	h   eventHeap
	seq int64
	// fenceSeq is the lane's seq counter snapshotted when the current
	// epoch's phase began. A heap event at exactly the fence time still
	// runs this phase iff it was pushed before the phase started —
	// reproducing the serial heap's (t, seq) tie order against the
	// coordinator event, whose push always precedes the phase (the tick
	// for time K is pushed while handling the tick for K-1).
	fenceSeq int64

	// Trace cursors. When flowOrder/keepOrder are nil the lane consumes
	// trace records directly (serial); otherwise they index the records
	// whose client homes on this shard, in trace (= time) order.
	flowIdx, keepIdx     int
	flowOrder, keepOrder []int32

	// Active-gateway set over [lo, hi): bit g-lo set while gateway g is
	// outside Sleeping (as far as the event machinery knows). tick()
	// iterates only set members, making sampling O(awake); sleeping
	// devices integrate in closed form. awakeN counts set bits.
	bits   []uint64
	awakeN int

	deferSinks bool
	sinks      []sinkOp

	// strandedN counts clients currently stranded on this lane's gateways
	// (failure runs only). Kept per lane so lanes never write a shared
	// counter; tick sums the lanes at the barrier.
	strandedN int
}

// push assigns the lane's next sequence number and queues the event.
func (sh *shard) push(e event) {
	sh.seq++
	e.seq = sh.seq
	sh.h.push(e)
}

type sim struct {
	cfg   Config
	strat strategy
	now   float64 // main-lane clock (strategies and tick always run on main)
	end   float64

	// Cancellation (RunContext). ctx is polled at epoch granularity — every
	// coordinator fence in sharded runs, every cancelCheckEvery events in
	// serial ones — never inside an event handler, so an uncanceled run's
	// event sequence (and therefore its result) is identical whether or not
	// a context was supplied. aborted records that the run stopped early;
	// its partial state is discarded, not reported.
	ctx     context.Context
	aborted bool

	gws     []gateway
	clients []client
	policy  kswitch.Policy
	cards   []*power.Device
	cardOn  []bool
	cardBuf []bool // reusable CardsAwakeInto scratch
	shelf   *power.Device

	// Engine lanes. shards hold the gateway-owning lanes (length 1 unless
	// the run is modeLocal with Config.Shards >= 2); main is the lane
	// strategy code, ticks and the serial driver execute on — &shards[0]
	// in single-lane runs, the coordinator lane co in sharded ones.
	shards  []shard
	co      shard
	main    *shard
	gwShard []int32 // gateway -> owning shard index; nil when single-lane
	mode    engineMode
	pool    *shardPool
	sinkIdx []int // drainSinks merge cursors (reused across epochs)

	// Quotient expansion (Config.Quotient non-nil, nil otherwise).
	// mirror[q] lists the full-scenario line ids gateway q stands for,
	// ascending; weight[q] is their multiplicity. Line wake/sleep ops fan
	// out over the mirror (applyLineOp), and tick/result weight their
	// per-gateway terms by the multiplicity.
	mirror [][]int32
	weight []float64

	// needDemand gates the per-client demand accounting (clientBytes):
	// only the coordinated schemes ever read it (demandInstance), so the
	// hot transport path skips the accumulation — and the parallel tick
	// never writes shared state — for every other scheme.
	needDemand bool
	// needLoad gates the per-tick load-estimator sampling: only BH²
	// terminals read the estimators.
	needLoad bool

	tickCount int64   // ticks fired so far
	lastTickT float64 // time of the most recent tick

	flows []flowState

	// Optimal bookkeeping.
	clientBytes []float64

	// lastTraffic[c] is the last time client c sent or received anything;
	// a terminal with no traffic for ~2 estimation windows is considered
	// powered off and runs no BH2 decisions (the algorithm lives on the
	// terminal).
	lastTraffic []float64

	decRNG  *rand.Rand
	wakeRNG *rand.Rand

	// Failure injection (failures.go); all nil/zero on failure-free runs.
	// The per-client float accumulators (strandedSec, reconnSec) exist so
	// the result sums them in client index order — bit-identical at every
	// shard count — instead of accumulating across lanes in arrival order.
	hasFailures     bool
	failSched       []failEvent
	failIdx         int
	strandedFrom    []float64 // stranding epoch per client (valid while strandedOn >= 0)
	strandedOn      []int32   // gateway the client is stranded on; -1 when served
	strandedPos     []int32   // index in that gateway's stranded list
	strandedSec     []float64
	reconnSec       []float64
	reconnN         []int32
	downTime        []float64 // per-gateway seconds without power
	failures        int       // distinct gateway-down episodes
	flowsAborted    int
	strandedTS      *stats.TimeSeries
	lastFailResolve float64 // dedups the coordinated schemes' failure re-solve per instant

	// Metrics.
	powerTS, userTS, ispTS, gwTS, cardTS *stats.TimeSeries
	moves, resolves, optGap              int
	reasons                              map[bh2.Reason]int
}

func newSim(cfg Config) (*sim, error) {
	strat, err := newStrategy(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	nGW := cfg.Topo.NumGateways
	nCl := cfg.Topo.NumClients()
	end := cfg.Trace.Cfg.Duration

	s := &sim{
		cfg: cfg, strat: strat, end: end,
		gws:         make([]gateway, nGW),
		clients:     make([]client, nCl),
		cards:       make([]*power.Device, cfg.DSLAM.Cards),
		cardOn:      make([]bool, cfg.DSLAM.Cards),
		clientBytes: make([]float64, nCl),
		decRNG:      stats.NewRNG(cfg.Seed, 0xdec1de),
		wakeRNG:     stats.NewRNG(cfg.Seed, 0x3a7e),
		flows:       make([]flowState, len(cfg.Trace.Flows)),
		reasons:     make(map[bh2.Reason]int),
		lastTraffic: make([]float64, nCl),

		lastFailResolve: -1,
	}
	for c := range s.lastTraffic {
		s.lastTraffic[c] = math.Inf(-1)
	}
	if qp := cfg.Quotient; qp != nil {
		s.mirror = make([][]int32, nGW)
		s.weight = make([]float64, nGW)
		for line, q := range qp.FullHome {
			s.mirror[q] = append(s.mirror[q], int32(line))
			s.weight[q]++
		}
	}
	s.mode = strat.parallelMode()
	if cfg.RandomWake && s.mode == modeLocal {
		// RandomWake draws every wake delay from one shared stream in
		// global event order; shard-local wakes would reorder the draws.
		// The parallel-tick mode keeps the event loop serial.
		s.mode = modeTick
	}
	s.needDemand = strat.usesDemand()
	s.needLoad = strat.usesLoad()

	bins := int(end / cfg.SampleEvery)
	s.powerTS = stats.NewTimeSeries(0, end, bins)
	s.userTS = stats.NewTimeSeries(0, end, bins)
	s.ispTS = stats.NewTimeSeries(0, end, bins)
	s.gwTS = stats.NewTimeSeries(0, end, bins)
	s.cardTS = stats.NewTimeSeries(0, end, bins)

	// §5.2: "the simulation starts with all the gateways sleeping" — unless
	// the scheme (no-sleep) says otherwise.
	initState := strat.initialState()
	idle, wake := strat.timeouts(cfg)

	for g := 0; g < nGW; g++ {
		dev := power.NewDevice(fmt.Sprintf("gw%d", g), power.GatewayWatts, initState, 0)
		est := wifi.NewLoadEstimator(cfg.Trace.Cfg.BackhaulBps)
		// BH2 terminals never query past EstWindow, so the estimator may
		// discard older samples instead of growing one sample per tick for
		// the whole run.
		est.MaxAgeSec = cfg.BH2.EstWindow
		s.gws[g] = gateway{
			id:       g,
			ctl:      soi.New(dev, idle, wake, 0),
			modem:    power.NewDevice(fmt.Sprintf("modem%d", g), power.ISPModemWatts, initState, 0),
			est:      est,
			schedGen: -1,          // no completion scan cached yet
			checkAt:  math.Inf(1), // no outstanding gwCheck event
		}
	}
	for c := 0; c < nCl; c++ {
		s.clients[c] = client{home: cfg.Topo.HomeOf[c], assigned: cfg.Topo.HomeOf[c], pendingPos: -1}
	}
	s.buildLanes(initState != power.Sleeping)

	if s.policy, err = strat.newPolicy(cfg); err != nil {
		return nil, err
	}
	for cd := range s.cards {
		s.cards[cd] = power.NewDevice(fmt.Sprintf("card%d", cd), power.LineCardWatts, initState, 0)
		s.cardOn[cd] = initState == power.On
	}
	s.shelf = power.NewDevice("shelf", power.ShelfWatts, power.On, 0)
	strat.postInit(s)

	// Seed periodic events (always on the main lane: ticks, decisions and
	// re-solves carry global order). Failure events due at t=0 are armed
	// last; later ones chain off the tick handler (see armFailures).
	s.push(event{t: 0, kind: evTick})
	strat.seedEvents(s)
	if !cfg.Failures.Empty() {
		s.initFailures(bins)
		s.armFailures(0)
	}
	return s, nil
}

// push queues an event on the main lane.
func (s *sim) push(e event) { s.main.push(e) }
