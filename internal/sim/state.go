package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"insomnia/internal/bh2"
	"insomnia/internal/dsl"
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

// shard is one lane of the event engine: the gateways [lo, hi) together
// with everything needed to advance them independently — a private event
// heap and sequence counter, its own cursors into the shared trace streams,
// the awake bitset for its gateways and the deferred sink queue.
//
// The serial engine is the one-lane special case: a single lane covering
// every gateway, so it skips no trace record, and as the main lane it
// applies sink ops inline. The sharded engine (shard.go) runs S lanes plus
// a coordinator lane that owns no gateways and carries only the
// globally-ordered events (ticks, failure events).
type shard struct {
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

	// Trace cursors: the next Trace.Flows / Trace.Keepalives record the
	// lane has not consumed or skipped. stepLane skips the records of
	// clients homed outside [lo, hi).
	flowIdx, keepIdx int

	// Active-gateway set over [lo, hi): bit g-lo set while gateway g is
	// outside Sleeping (as far as the event machinery knows). tick()
	// iterates only set members, making sampling O(awake); sleeping
	// devices integrate in closed form.
	bits []uint64

	sinks []sinkOp

	// strandedN counts clients currently stranded on this lane's gateways
	// (failure runs only). Kept per lane so lanes never write a shared
	// counter; tick sums the lanes at the barrier.
	strandedN int
}

// owns reports whether gateway g lies in the lane's range.
func (sh *shard) owns(g int) bool { return sh.lo <= g && g < sh.hi }

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
	// fabrics are the switch fabrics the run drives: the cell's own scheme
	// first, then one per Config.Siblings entry. Strategy code that touches
	// the policy directly (no-sleep's postInit, optimal) uses fabrics[0];
	// those schemes never have siblings.
	fabrics []fabricState
	shelf   *power.Device

	// Engine lanes. shards hold the gateway-owning lanes (length 1 unless
	// the scheme is shard-local and Config.Shards >= 2); main is the lane
	// strategy code, ticks and the serial driver execute on — &shards[0]
	// in single-lane runs, the coordinator lane co in sharded ones.
	shards  []shard
	co      shard
	main    *shard
	pool    *shardPool // shard workers; nil when single-lane
	sinkIdx []int      // drainSinks merge cursors (reused across epochs)

	// Quotient expansion. plan is Config.Quotient, or the singleton plan
	// when that is nil, so full and collapsed runs take one path. The
	// full-scenario lines gateway q stands for are, ascending,
	// mirrorLines[mirrorStart[q]:mirrorStart[q+1]] (mirrorOf); their count
	// is q's weight. Line wake/sleep ops fan out over the mirror
	// (applyLineOp), tick weights its per-gateway terms by the count
	// (weight), and result folds through the plan in full id order.
	plan        *QuotientPlan
	mirrorStart []int32
	mirrorLines []int32

	// needDemand gates the per-client demand accounting (clientBytes):
	// only the coordinated schemes ever read it (demandInstance), so the
	// hot transport path skips the accumulation — and the sharded tick
	// prep never writes shared state — for every other scheme.
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

	// views is BH²'s scratch for what a deciding terminal observes; each
	// decision rebuilds it, since bh2.Decide keeps none of it.
	views []bh2.GatewayView

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

	// Metrics. The fabric-dependent series live on each fabricState.
	userTS, gwTS            *stats.TimeSeries
	moves, resolves, optGap int
	reasons                 map[bh2.Reason]int
}

// fabricState is everything one switch fabric owns: the DSLAM switch
// policy, its line cards and the series they feed. The fabric is a pure
// sink (see sinkOp): nothing here feeds back into gateway, client or flow
// dynamics, so schemes with one gateway side (GatewaySide) can share a
// run, each fabric replaying the same line wake/sleep sequence.
type fabricState struct {
	scheme Scheme
	policy kswitch.Policy
	cards  []*power.Device

	powerTS, ispTS, cardTS *stats.TimeSeries
}

func newSim(cfg Config) (*sim, error) {
	row := &catalogue[cfg.Scheme]
	nGW := cfg.Topo.NumGateways
	nCl := cfg.Topo.NumClients()
	end := cfg.Trace.Cfg.Duration

	s := &sim{
		cfg: cfg, strat: row.strat, end: end,
		gws:         make([]gateway, nGW),
		clients:     make([]client, nCl),
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
	s.plan = cfg.Quotient
	if s.plan == nil {
		s.plan = singletonPlan(nGW, nCl, !cfg.Failures.Empty())
	}
	s.buildMirror()
	s.needDemand = row.readsDemand
	s.needLoad = row.readsLoad

	bins := int(end / tickSeconds)
	s.userTS = stats.NewTimeSeries(0, end, bins)
	s.gwTS = stats.NewTimeSeries(0, end, bins)

	// §5.2: "the simulation starts with all the gateways sleeping" — unless
	// the scheme (no-sleep) says otherwise.
	initState := power.Sleeping
	idle, wake := cfg.IdleTimeout, dsl.WakeSeconds
	switch {
	case row.alwaysOn:
		initState, idle = power.On, math.Inf(1)
	case row.fiatWake:
		idle, wake = math.Inf(1), 0
	}

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

	// The shelf carries every full-scenario line, wired once per run.
	portOf, err := dsl.RandomAssignment(cfg.DSLAM, s.plan.FullGateways, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s.fabrics = make([]fabricState, 1+len(cfg.Siblings))
	for i, sc := range append([]Scheme{cfg.Scheme}, cfg.Siblings...) {
		fs := &s.fabrics[i]
		fs.scheme = sc
		if fs.policy, err = catalogue[sc].fabric.build(cfg, portOf); err != nil {
			return nil, err
		}
		fs.cards = make([]*power.Device, cfg.DSLAM.Cards)
		for cd := range fs.cards {
			fs.cards[cd] = power.NewDevice(fmt.Sprintf("card%d", cd), power.LineCardWatts, initState, 0)
		}
		fs.powerTS = stats.NewTimeSeries(0, end, bins)
		fs.ispTS = stats.NewTimeSeries(0, end, bins)
		fs.cardTS = stats.NewTimeSeries(0, end, bins)
	}
	s.shelf = power.NewDevice("shelf", power.ShelfWatts, power.On, 0)
	s.strat.postInit(s)

	// Seed periodic events (always on the main lane: ticks, decisions and
	// re-solves carry global order). Failure events due at t=0 are armed
	// last; later ones chain off the tick handler (see armFailures).
	s.push(event{t: 0, kind: evTick})
	s.strat.seedEvents(s)
	if !cfg.Failures.Empty() {
		s.initFailures(bins)
		s.armFailures(0)
	}
	return s, nil
}

// singletonPlan is the trivial quotient of a full scenario: every gateway
// and every client stands for itself. Only result's failure fold reads the
// client map, so a run without failures gets none.
func singletonPlan(nGW, nCl int, failures bool) *QuotientPlan {
	qp := &QuotientPlan{FullGateways: nGW, FullClients: nCl, FullHome: make([]int32, nGW)}
	for g := range qp.FullHome {
		qp.FullHome[g] = int32(g)
	}
	if failures {
		qp.FullClientOf = make([]int32, nCl)
		for c := range qp.FullClientOf {
			qp.FullClientOf[c] = int32(c)
		}
	}
	return qp
}

// buildMirror buckets the plan's full lines by the gateway standing for
// them: a stable counting sort, so each bucket stays in ascending line id.
func (s *sim) buildMirror() {
	nGW := len(s.gws)
	s.mirrorStart = make([]int32, nGW+1)
	for _, q := range s.plan.FullHome {
		s.mirrorStart[q+1]++
	}
	for q := 0; q < nGW; q++ {
		s.mirrorStart[q+1] += s.mirrorStart[q]
	}
	next := append([]int32(nil), s.mirrorStart[:nGW]...)
	s.mirrorLines = make([]int32, len(s.plan.FullHome))
	for line, q := range s.plan.FullHome {
		s.mirrorLines[next[q]] = int32(line)
		next[q]++
	}
}

// mirrorOf returns the full-scenario lines gateway q stands for, in
// ascending id order.
func (s *sim) mirrorOf(q int) []int32 {
	return s.mirrorLines[s.mirrorStart[q]:s.mirrorStart[q+1]]
}

// weight is the number of full-scenario gateways q stands for, the length
// of mirrorOf(q): 1 in a full run. tick reads it for every awake gateway
// each second, where two loads cost less than slicing the mirror.
func (s *sim) weight(q int) int { return int(s.mirrorStart[q+1] - s.mirrorStart[q]) }

// push queues an event on the main lane.
func (s *sim) push(e event) { s.main.push(e) }
