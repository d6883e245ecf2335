package oracle

import (
	"math"

	"insomnia/internal/power"
	"insomnia/internal/sim"
)

// ref.go is the exact reference interpreter's event loop: one gateway at a
// time, straight-line, no heap. Every float expression below re-states the
// corresponding engine expression (internal/sim/engine.go) operand for
// operand, because the contract is bitwise equality, not approximation.
//
// Why per-gateway interpretation is sound: the uncoupled schemes route
// every client to its immutable home gateway and never read another
// gateway's state, so a gateway's trajectory is a function of (its own
// clients' trace records, the global tick grid, its controller). The only
// shared state — switch fabric and line cards — is write-only from the
// gateways' side and replays afterwards in fabric.go from the merged
// line-op streams.

// tickSeconds is the engine's metric tick, restated: the global grid 0, 1,
// 2, ... seconds on which the engine advances and elapses every awake
// gateway.
const tickSeconds = 1.0

// lineOp is one gateway wake/sleep side effect on the shelf, in the order
// the engine would apply it (the engine's own lineOp).
type lineOp struct {
	t    float64
	gw   int
	wake bool
}

// refFlow mirrors the engine's flowState for one trace flow.
type refFlow struct {
	rem       float64
	capBps    float64
	done      bool
	completed float64
	stallFrom float64
	stalled   float64
}

// refGateway interprets one gateway's full horizon.
type refGateway struct {
	id    int
	cfg   *sim.Config
	ctl   *refCtl
	dev   *refDevice // the gateway itself (power.GatewayWatts)
	modem *refDevice // its DSLAM port modem (power.ISPModemWatts)

	fs         []refFlow // shared across gateways, indexed by trace flow id
	flows      []int     // in-service trace flow ids, engine list order
	lastElapse float64
	complAt    float64 // next completion check (+Inf when unarmed)
	tickT      float64 // next tick on the global grid 0, +tickSeconds, ...
	inSet      bool    // mirror of the engine's awake-set membership
	ops        []lineOp
}

// Candidate sources in firing priority at exactly equal times. The heap
// trio (check, tick, completion) beats trace records because the engine
// admits trace records only on strictly-earlier times; flows beat
// keepalives the same way. Among the heap trio the order is fixed by
// convention — see the package comment's tie-order note.
const (
	srcCheck = iota
	srcTick
	srcCompl
	srcFlow
	srcKeep
)

// run interprets the gateway over [0, end]. flowIdx and keepIdx are the
// trace record indices routed to this gateway, in trace order (downlink
// flows only; uplink flows are global no-ops handled by the caller).
func (g *refGateway) run(flowIdx, keepIdx []int) {
	tr := g.cfg.Trace
	end := tr.Cfg.Duration
	fcur, kcur := 0, 0
	for {
		tNext, src := math.Inf(1), -1
		if t := g.ctl.next(); t < tNext {
			tNext, src = t, srcCheck
		}
		if g.tickT < tNext {
			tNext, src = g.tickT, srcTick
		}
		if g.complAt < tNext {
			tNext, src = g.complAt, srcCompl
		}
		if fcur < len(flowIdx) {
			if ft := tr.Flows[flowIdx[fcur]].Start; ft < tNext {
				tNext, src = ft, srcFlow
			}
		}
		if kcur < len(keepIdx) {
			if kt := tr.Keepalives[keepIdx[kcur]].T; kt < tNext {
				tNext, src = kt, srcKeep
			}
		}
		// Events past the horizon never fire; events at exactly the horizon
		// do (the engine pushes ticks with t <= end and stops the lane on
		// the first strictly-later event).
		if src < 0 || tNext > end {
			return
		}
		now := tNext
		switch src {
		case srcCheck:
			g.check(now)
		case srcTick:
			// The engine's tick visits only awake-set members: controller
			// advance, then transport elapse (which bumps lastElapse even
			// while Waking — elapse's clock update is unconditional).
			if g.inSet {
				g.ctl.advance(now)
				g.elapse(now)
			}
			g.tickT = now + tickSeconds
		case srcCompl:
			g.complete(now)
		case srcFlow:
			g.flowArrival(now, flowIdx[fcur])
			fcur++
		case srcKeep:
			// Keepalives only touch: no transport elapse, no flow state.
			g.touch(now)
			kcur++
		}
	}
}

// check fires the controller's next autonomous transition, due exactly
// now. The engine arms one chasing evGwCheck per gateway and re-derives
// the due time on pop; stale pops are pure no-ops, so the net effect —
// reproduced here without a heap — is one real check at each value of
// ctl.NextTransition().
func (g *refGateway) check(now float64) {
	due := g.ctl.next() // == now: the caller fires checks only when due
	switch g.ctl.dev.state {
	case power.Waking:
		// Wake completes: modem up, stalled flows released, service clock
		// restarted, completion re-armed.
		g.ctl.advance(now)
		g.modem.setState(due, power.On)
		g.lastElapse = now
		for _, fi := range g.flows {
			if f := &g.fs[fi]; f.stallFrom >= 0 {
				f.stalled += now - f.stallFrom
				f.stallFrom = -1
			}
		}
		g.scheduleCompletion(now)
	case power.On:
		// Sleep deadline. A gateway with flows in flight is not idle: the
		// engine extends the idle clock without advancing.
		if len(g.flows) > 0 {
			g.ctl.busy(now)
			return
		}
		g.elapse(now)
		g.ctl.advance(now)
		if g.ctl.dev.state == power.Sleeping {
			g.modem.setState(due, power.Sleeping)
			g.ops = append(g.ops, lineOp{t: due, gw: g.id, wake: false})
			g.inSet = false
		}
	}
}

// complete handles a completion check: integrate service, reap finished
// flows (sub-byte remainders count as done), touch on any completion, and
// re-arm.
func (g *refGateway) complete(now float64) {
	g.elapse(now)
	keep := g.flows[:0]
	finished := false
	for _, fi := range g.flows {
		f := &g.fs[fi]
		if f.rem < 1 {
			f.done = true
			f.completed = now
			finished = true
		} else {
			keep = append(keep, fi)
		}
	}
	g.flows = keep
	if finished {
		g.touch(now)
	}
	g.scheduleCompletion(now)
}

// flowArrival starts downlink trace flow idx: elapse first (the new flow
// must not be served for the preceding interval), wire the capacity, then
// touch, stall-mark if the gateway is not yet On, and re-arm completion.
func (g *refGateway) flowArrival(now float64, idx int) {
	rec := &g.cfg.Trace.Flows[idx]
	g.elapse(now)
	capBps := g.cfg.Topo.LinkBps(int(rec.Client), g.id)
	if capBps <= 0 {
		capBps = g.cfg.Topo.NeighborBps
	}
	if r := rec.Rate; r > 0 && r < capBps {
		capBps = r
	}
	f := &g.fs[idx]
	*f = refFlow{rem: float64(rec.Bytes), capBps: capBps, stallFrom: -1}
	g.flows = append(g.flows, idx)
	g.touch(now)
	if !g.ctl.awake() {
		f.stallFrom = now
	}
	g.scheduleCompletion(now)
}

// touch registers traffic; a Sleeping→Waking transition powers the port
// modem and emits the line-wake op, exactly where the engine fires its
// wake side effects.
func (g *refGateway) touch(t float64) {
	if g.ctl.touch(t) {
		g.inSet = true
		g.modem.setState(t, power.Waking)
		g.ops = append(g.ops, lineOp{t: t, gw: g.id, wake: true})
		g.lastElapse = t
	}
}

// elapse integrates processor-sharing service since lastElapse. The clock
// update is unconditional — matching the engine — so intervals spent
// Waking or idle are consumed, not carried.
func (g *refGateway) elapse(now float64) {
	dt := now - g.lastElapse
	g.lastElapse = now
	if dt <= 0 || len(g.flows) == 0 || !g.ctl.awake() {
		return
	}
	rate := g.cfg.Trace.Cfg.BackhaulBps / 8 / float64(len(g.flows)) // bytes/s each
	for _, fi := range g.flows {
		f := &g.fs[fi]
		r := rate
		if w := f.capBps / 8; w < r {
			r = w
		}
		x := r * dt
		if x > f.rem {
			x = f.rem
		}
		f.rem -= x
	}
}

// scheduleCompletion re-arms the completion check. The engine caches the
// argmin flow between membership changes; the cached recomputation is
// value-identical to this full scan (strict-less argmin, first flow in
// list order wins ties in both), so the reference always scans.
func (g *refGateway) scheduleCompletion(now float64) {
	if len(g.flows) == 0 || !g.ctl.awake() {
		g.complAt = math.Inf(1)
		return
	}
	rate := g.cfg.Trace.Cfg.BackhaulBps / 8 / float64(len(g.flows))
	tMin := math.Inf(1)
	for _, fi := range g.flows {
		f := &g.fs[fi]
		r := rate
		if w := f.capBps / 8; w < r {
			r = w
		}
		if t := f.rem / r; t < tMin {
			tMin = t
		}
	}
	if tMin < 1e-9 {
		tMin = 1e-9 // the engine's sub-byte clock floor
	}
	g.complAt = now + tMin
}
