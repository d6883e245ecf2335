package sim

import (
	"fmt"
	"math"
	"sort"

	"insomnia/internal/power"
	"insomnia/internal/stats"
)

// Failure injection: deterministic gateway crashes, restarts and area power
// outages threaded through the event engine.
//
// The plan is fully expanded at newSim time into a (t, gw, up) schedule with
// every reboot interval pre-drawn, so runtime behavior never consults an RNG
// and is identical at every shard count. The events themselves are injected
// on the main lane — the coordinator lane under the sharded engine — and are
// armed through the metric-tick chain (armFailures below): the fence rule of
// stepLane assumes every coordinator event was pushed while handling an
// earlier coordinator event, and arming failures from the tick handler keeps
// that invariant, so the serial (t, seq) tie order is reproduced exactly.
//
// Failure semantics: a crashed gateway loses power instantly — in-flight
// flows on it abort, its line goes dark (modem + switch fabric see a sleep),
// and wake attempts are lost (touch is gated) until the gateway has rebooted.
// Overlapping failure causes (a crash inside an outage window) nest through
// a per-gateway depth counter: the gateway is operative again only when
// every cause has cleared. Clients discover the failure the way real
// terminals do — when their next packet goes unanswered — and count as
// stranded from that attempt until service resumes (recovery hand-back or a
// scheme moving them to a live gateway).

// GatewayCrash fails one gateway at At; it reboots and comes back operative
// RebootSec later (0 draws from the plan's reboot distribution).
type GatewayCrash struct {
	At        float64
	Gateway   int
	RebootSec float64
}

// OutageWindow cuts power to Gateways over [Start, Start+DurationSec).
// When power returns each gateway still pays its own drawn reboot time
// before it is operative — the staggered boot-up after a neighborhood
// outage.
type OutageWindow struct {
	Start       float64
	DurationSec float64
	// Gateways lists the affected gateways, at least one. The reboot
	// draws consume the 0xfa11 stream in list order, so callers remapping
	// gateway ids (the campaign symmetry-collapse pass, whose quotient ids
	// are not contiguous) keep the list in the original scenario's order
	// to reproduce its draw sequence.
	Gateways []int
}

// FailurePlan is the failure schedule for one run. The zero value injects
// nothing and adds no runtime cost.
type FailurePlan struct {
	Crashes []GatewayCrash
	Outages []OutageWindow

	// Reboot-time distribution for crashes without an explicit RebootSec and
	// for every outage recovery: lognormal with mean RebootMeanSec and shape
	// RebootSigma (defaults 300 s, 0.5). Draws are pre-generated from
	// Config.Seed, stream 0xfa11, in plan order.
	RebootMeanSec float64
	RebootSigma   float64
}

// Empty reports whether the plan injects nothing.
func (p FailurePlan) Empty() bool { return len(p.Crashes) == 0 && len(p.Outages) == 0 }

// normalized validates the plan against the topology size and fills the
// distribution defaults.
func (p FailurePlan) normalized(nGW int) (FailurePlan, error) {
	if p.Empty() {
		return p, nil
	}
	if p.RebootMeanSec == 0 {
		p.RebootMeanSec = 300
	}
	if p.RebootSigma == 0 {
		p.RebootSigma = 0.5
	}
	if p.RebootMeanSec < 0 || math.IsNaN(p.RebootMeanSec) {
		return p, fmt.Errorf("sim: invalid reboot mean %v", p.RebootMeanSec)
	}
	if p.RebootSigma < 0 || math.IsNaN(p.RebootSigma) {
		return p, fmt.Errorf("sim: invalid reboot sigma %v", p.RebootSigma)
	}
	for i, c := range p.Crashes {
		if c.At < 0 || math.IsNaN(c.At) || math.IsInf(c.At, 0) {
			return p, fmt.Errorf("sim: crash %d at invalid time %v", i, c.At)
		}
		if c.Gateway < 0 || c.Gateway >= nGW {
			return p, fmt.Errorf("sim: crash %d targets gateway %d of %d", i, c.Gateway, nGW)
		}
		if c.RebootSec < 0 || math.IsNaN(c.RebootSec) {
			return p, fmt.Errorf("sim: crash %d has invalid reboot %v", i, c.RebootSec)
		}
	}
	for i, o := range p.Outages {
		if o.Start < 0 || math.IsNaN(o.Start) || math.IsInf(o.Start, 0) {
			return p, fmt.Errorf("sim: outage %d starts at invalid time %v", i, o.Start)
		}
		if o.DurationSec <= 0 || math.IsNaN(o.DurationSec) || math.IsInf(o.DurationSec, 0) {
			return p, fmt.Errorf("sim: outage %d has invalid duration %v", i, o.DurationSec)
		}
		if len(o.Gateways) == 0 {
			return p, fmt.Errorf("sim: outage %d covers no gateways", i)
		}
		for _, gw := range o.Gateways {
			if gw < 0 || gw >= nGW {
				return p, fmt.Errorf("sim: outage %d targets gateway %d of %d", i, gw, nGW)
			}
		}
	}
	return p, nil
}

// failEvent is one expanded schedule entry: gateway gw loses (up=false) or
// regains (up=true) power at t.
type failEvent struct {
	t  float64
	gw int32
	up bool
}

// buildFailSchedule expands a normalized plan into a sorted event schedule
// with all reboot intervals drawn up front.
func buildFailSchedule(p FailurePlan, seed int64) []failEvent {
	r := stats.NewRNG(seed, 0xfa11)
	// Lognormal parameterized by its mean: mu = ln(mean) - sigma^2/2.
	draw := func() float64 {
		return stats.Lognormal(r, math.Log(p.RebootMeanSec)-p.RebootSigma*p.RebootSigma/2, p.RebootSigma)
	}
	var sched []failEvent
	for _, c := range p.Crashes {
		reboot := c.RebootSec
		if reboot == 0 {
			reboot = draw()
		}
		sched = append(sched,
			failEvent{t: c.At, gw: int32(c.Gateway)},
			failEvent{t: c.At + reboot, gw: int32(c.Gateway), up: true})
	}
	for _, o := range p.Outages {
		for _, gw := range o.Gateways {
			sched = append(sched,
				failEvent{t: o.Start, gw: int32(gw)},
				failEvent{t: o.Start + o.DurationSec + draw(), gw: int32(gw), up: true})
		}
	}
	// Total order: time, failures before recoveries at the same instant (a
	// gateway whose reboot completes exactly as a new failure hits stays
	// down until the later recovery), gateway id as the final tie-break.
	sort.Slice(sched, func(i, j int) bool {
		a, b := sched[i], sched[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.up != b.up {
			return !a.up
		}
		return a.gw < b.gw
	})
	return sched
}

// initFailures allocates the failure-run state. Called from newSim only when
// the plan is non-empty, so failure-free runs pay nothing.
func (s *sim) initFailures(bins int) {
	s.hasFailures = true
	s.failSched = buildFailSchedule(s.cfg.Failures, s.cfg.Seed)
	nCl := len(s.clients)
	s.strandedFrom = make([]float64, nCl)
	s.strandedOn = make([]int32, nCl)
	s.strandedPos = make([]int32, nCl)
	for c := 0; c < nCl; c++ {
		s.strandedOn[c] = -1
		s.strandedPos[c] = -1
	}
	s.strandedSec = make([]float64, nCl)
	s.reconnSec = make([]float64, nCl)
	s.reconnN = make([]int32, nCl)
	s.downTime = make([]float64, len(s.gws))
	s.strandedTS = stats.NewTimeSeries(0, s.end, bins)
}

// armFailures pushes every not-yet-armed schedule entry due by upTo onto the
// main lane. It is called once at init (upTo 0) and from the tick handler
// with the next tick's time, so each failure event is pushed while handling
// an earlier coordinator event — the ordering invariant the sharded fence
// rule depends on.
func (s *sim) armFailures(upTo float64) {
	for s.failIdx < len(s.failSched) {
		fe := s.failSched[s.failIdx]
		if fe.t > upTo {
			return
		}
		kind := evFail
		if fe.up {
			kind = evRecover
		}
		s.push(event{t: fe.t, kind: kind, a: int(fe.gw)})
		s.failIdx++
	}
}

// laneOf returns the lane owning gateway gw: the first lane whose range
// ends past it, since the lanes tile [0, nGW) in order.
func (s *sim) laneOf(gw int) *shard {
	return &s.shards[sort.Search(len(s.shards), func(i int) bool { return gw < s.shards[i].hi })]
}

// failGateway applies one evFail: power is cut at now. Runs on the main
// lane; under the sharded engine that is an epoch barrier, so touching the
// owning lane's state is safe.
func (s *sim) failGateway(g *gateway, now float64) {
	g.failDepth++
	if g.failDepth > 1 {
		return // already down for another reason; depth tracks the overlap
	}
	s.failures++
	g.downSince = now
	lane := s.laneOf(g.id)
	// Failure events run at an epoch barrier: the owning lane has processed
	// everything strictly before now, so advancing its clock here mirrors
	// the serial engine (where this event runs on the lane itself) and any
	// event we push below is stamped from the failure instant, not the
	// lane's last event.
	if lane.now < now {
		lane.now = now
	}
	s.elapse(g, now) // integrate service delivered up to the cut
	for _, fi := range g.flows {
		f := &s.flows[fi]
		f.stallFrom = -1
		s.flowsAborted++
		// The client was actively using the gateway: stranded from the cut.
		s.markStranded(f.client, g.id, now)
	}
	g.flows = g.flows[:0]
	g.flowsGen++
	g.complEpoch++ // orphan any scheduled completion check
	if g.ctl.Fail(now) != power.Sleeping {
		// The line was active: modem drops and the switch fabric sees the
		// line go inactive, exactly as a voluntary sleep would.
		g.modem.SetState(now, power.Sleeping)
		s.lineOp(s.main, g.id, false, now)
		g.est.Reset()
		s.quiesce(lane, g)
	}
	s.strat.onFailure(s, g.id, false)
}

// recoverGateway applies one evRecover: the gateway finished rebooting at
// now and is operative (its reboot interval elapsed between the matching
// evFail and this event — the device comes up On with a fresh idle clock).
func (s *sim) recoverGateway(g *gateway, now float64) {
	g.failDepth--
	if g.failDepth > 0 {
		return // still inside another failure cause
	}
	s.downTime[g.id] += now - g.downSince
	lane := s.laneOf(g.id)
	if lane.now < now { // see failGateway: barrier semantics
		lane.now = now
	}
	g.ctl.Restore(now)
	s.awaken(lane, g)
	g.modem.SetState(now, power.On)
	s.lineOp(s.main, g.id, true, now)
	// Flows that arrived during the downtime (user retries) queued stalled;
	// service starts now, exactly as after an ordinary wake completion.
	s.resumeService(lane, g, now)
	// Reconnect storm: every client stranded on this gateway regains
	// service at once. Drain from the tail so each removal is O(1); the
	// per-client accounting makes the order immaterial.
	for len(g.stranded) > 0 {
		s.unstrand(int(g.stranded[len(g.stranded)-1]), now)
	}
	s.armGwCheck(lane, g)
	s.strat.onFailure(s, g.id, true)
}

// noteService updates stranded accounting after client c's traffic was
// routed to gateway gw at time t: an attempt on a dead gateway strands the
// client, a served attempt reconnects a stranded one. Called from lane
// context; in a sharded run both the client and its (home) gateway live on
// the calling lane, so the writes stay lane-local.
func (s *sim) noteService(c, gw int, t float64) {
	if s.gws[gw].failDepth > 0 {
		s.markStranded(c, gw, t)
	} else if s.strandedOn[c] >= 0 {
		s.unstrand(c, t)
	}
}

// markStranded records that client c found gateway gw dead at t. A client
// already stranded keeps its original stranding time; if the new attempt hit
// a different gateway the client is re-parked on that one, since its
// recovery is now what restores service.
func (s *sim) markStranded(c, gw int, t float64) {
	if s.strandedOn[c] == int32(gw) {
		return
	}
	if s.strandedOn[c] >= 0 {
		s.removeStranded(c)
	} else {
		s.strandedFrom[c] = t
		s.laneOf(gw).strandedN++
	}
	g := &s.gws[gw]
	s.strandedOn[c] = int32(gw)
	s.strandedPos[c] = int32(len(g.stranded))
	g.stranded = append(g.stranded, int32(c))
}

// removeStranded unlinks client c from its parked gateway's stranded list in
// O(1) without closing the stranded interval.
func (s *sim) removeStranded(c int) {
	g := &s.gws[s.strandedOn[c]]
	last := len(g.stranded) - 1
	if i := int(s.strandedPos[c]); i != last {
		moved := g.stranded[last]
		g.stranded[i] = moved
		s.strandedPos[moved] = int32(i)
	}
	g.stranded = g.stranded[:last]
}

// unstrand closes client c's stranded interval at t, when it reconnects;
// the interval counts toward the recovery-time metric. Intervals still open
// at the horizon are closed by result, without a reconnect.
func (s *sim) unstrand(c int, t float64) {
	s.laneOf(int(s.strandedOn[c])).strandedN--
	s.removeStranded(c)
	s.strandedOn[c] = -1
	s.strandedPos[c] = -1
	dt := t - s.strandedFrom[c]
	s.strandedSec[c] += dt
	s.reconnSec[c] += dt
	s.reconnN[c]++
}
