package sim

// The engine core: the scheme-agnostic half of the simulator. It merges the
// trace's flow/keepalive streams with the dynamic event heap, integrates
// processor-sharing transport, drives the SoI power controllers and samples
// the metric series. Everything scheme-specific — routing, decisions,
// re-solves, switch fabric — is delegated to the sim's strategy (scheme.go
// and the scheme_*.go files).
//
// Every function here operates on a lane (*shard): the single serial lane
// in ordinary runs, a gateway shard's own lane under the sharded engine
// (shard.go). Strategy code always executes on the main lane.

import (
	"math"
	"math/bits"

	"insomnia/internal/dsl"
	"insomnia/internal/power"
	"insomnia/internal/wifi"
)

// cancelCheckEvery is the serial engine's cancellation poll period in
// events. Polling the context costs a mutexed load, so the hot loop
// amortizes it; at typical event rates (hundreds of thousands per wall
// second) a canceled run still stops within microseconds.
const cancelCheckEvery = 4096

// tickSeconds is the metric tick: the sampling period of every Result
// series and of the BH² load estimators.
const tickSeconds = dsl.TickSeconds

// resolveSeconds is the coordinated schemes' re-solve period: the paper's
// oracle re-solves "every minute" (§5.1).
const resolveSeconds = 60.0

// run drives the merged event streams to the end of the trace, stopping
// early (s.aborted) when the run's context is canceled.
func (s *sim) run() {
	if len(s.shards) > 1 {
		s.runSharded()
		return
	}
	for n := 1; s.stepLane(s.main, math.Inf(1)); n++ {
		if n&(cancelCheckEvery-1) == 0 && s.canceled() {
			s.aborted = true
			return
		}
	}
	s.now = s.end
}

// canceled reports whether the run's context (if any) has been canceled.
func (s *sim) canceled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// stepLane advances lane sh by one event — the next dynamic heap event or
// trace record of a client homed on the lane, whichever is earlier (heap
// wins ties, then flows, then keepalives). It returns false once the lane's
// streams are exhausted, past the trace end, or stopped by the fence.
//
// The fence reproduces the serial heap's (t, seq) tie order against the
// coordinator event exactly: trace records at the fence time always lose
// (the serial merge admits records only on strictly smaller times), and a
// heap event at the fence time wins iff it was pushed before this phase
// began (seq <= fenceSeq) — the coordinator event's own push precedes
// every event pushed during the phase, so lane-local seq comparison
// recovers the global order without a global counter.
func (s *sim) stepLane(sh *shard, fence float64) bool {
	tr, home := s.cfg.Trace, s.cfg.Topo.HomeOf
	for sh.flowIdx < len(tr.Flows) && !sh.owns(home[tr.Flows[sh.flowIdx].Client]) {
		sh.flowIdx++
	}
	for sh.keepIdx < len(tr.Keepalives) && !sh.owns(home[tr.Keepalives[sh.keepIdx].Client]) {
		sh.keepIdx++
	}
	tNext := math.Inf(1)
	src := -1 // 0=heap 1=flow 2=keepalive
	if sh.h.len() > 0 {
		if e := &sh.h.ev[0]; e.t < fence || (e.t == fence && e.seq <= sh.fenceSeq) {
			tNext, src = e.t, 0
		}
	}
	if sh.flowIdx < len(tr.Flows) {
		if ft := tr.Flows[sh.flowIdx].Start; ft < tNext && ft < fence {
			tNext, src = ft, 1
		}
	}
	if sh.keepIdx < len(tr.Keepalives) {
		if kt := tr.Keepalives[sh.keepIdx].T; kt < tNext && kt < fence {
			tNext, src = kt, 2
		}
	}
	if src == -1 || tNext > s.end {
		return false
	}
	sh.now = tNext
	if sh == s.main {
		s.now = tNext
	}
	switch src {
	case 0:
		s.handle(sh, sh.h.pop())
	case 1:
		f := tr.Flows[sh.flowIdx]
		s.flowArrival(sh, sh.flowIdx, int(f.Client), f.Up)
		sh.flowIdx++
	case 2:
		k := tr.Keepalives[sh.keepIdx]
		s.keepalive(sh, int(k.Client), int64(k.Bytes))
		sh.keepIdx++
	}
	return true
}

func (s *sim) handle(sh *shard, e event) {
	switch e.kind {
	case evComplete:
		g := &s.gws[e.a]
		if e.aux != g.complEpoch {
			return // superseded
		}
		s.elapse(g, sh.now)
		s.reapCompleted(sh, g)
		s.scheduleCompletion(sh, g)
	case evGwCheck:
		g := &s.gws[e.a]
		if e.t >= g.checkAt {
			// This pop consumes the tracked earliest check (later stale
			// ones may still sit in the heap; they re-derive and re-arm).
			g.checkAt = math.Inf(1)
		}
		s.gwCheck(sh, g)
	case evDecide:
		s.strat.onDecide(s, e.a)
	case evTick:
		s.tick()
		if t := s.now + tickSeconds; t <= s.end {
			s.push(event{t: t, kind: evTick})
		}
		if s.hasFailures {
			// Arm the failure events due before the next tick. Chaining the
			// pushes off the tick handler keeps the coordinator-event
			// ordering invariant the sharded fence rule relies on.
			s.armFailures(s.now + tickSeconds)
		}
	case evResolve:
		s.strat.onResolve(s)
		// aux 1 marks a one-shot failure-reaction solve: it must not spawn a
		// second periodic chain.
		if e.aux == 0 {
			if t := s.now + resolveSeconds; t <= s.end {
				s.push(event{t: t, kind: evResolve})
			}
		}
	case evFail:
		s.failGateway(&s.gws[e.a], sh.now)
	case evRecover:
		s.recoverGateway(&s.gws[e.a], sh.now)
	}
}

// ---- gateway state machinery ----

// awaken adds g to lane sh's active-gateway set. Called exactly where the
// engine fires wake side effects (modem up, switch remap), so set
// membership mirrors "the modem is not sleeping".
//
// When the scheme reads load estimators (needLoad), it also performs the
// lazy-sampling catch-up: while g slept, the dense pre-refactor tick loop
// would have kept observing g's (unchanging) SN counter, leaving the
// estimator primed at the last tick. Observing once at that tick's time
// reproduces the identical estimator state — the skipped zero-frame
// samples are invisible to Utilization and ActiveWithin. If no tick fired
// since the estimator's reset, the dense loop would have left it unprimed,
// so neither do we. (tickCount/lastTickT advance only at epoch barriers,
// so shard lanes read a stable snapshot mid-phase.)
func (s *sim) awaken(sh *shard, g *gateway) {
	l := g.id - sh.lo
	w, b := l>>6, uint64(1)<<(uint(l)&63)
	if sh.bits[w]&b != 0 {
		return
	}
	sh.bits[w] |= b
	if s.needLoad && s.tickCount > g.estResetTick {
		g.est.Observe(s.lastTickT, g.sn.Value())
	}
}

// quiesce removes g from lane sh's active-gateway set. Called exactly where
// the engine fires sleep side effects (modem down, estimator reset).
func (s *sim) quiesce(sh *shard, g *gateway) {
	l := g.id - sh.lo
	w, b := l>>6, uint64(1)<<(uint(l)&63)
	if sh.bits[w]&b == 0 {
		return
	}
	sh.bits[w] &^= b
	g.estResetTick = s.tickCount
}

// touch registers traffic/wake intent on gateway g, firing ISP-side side
// effects when it starts a wake. sh must be g's owning lane (strategy code
// passes s.main, which owns every gateway in the modes strategies run in).
func (s *sim) touch(sh *shard, g *gateway, t float64) {
	if g.failDepth > 0 {
		return // dead line: traffic and wake attempts are lost until recovery
	}
	if s.cfg.RandomWake && g.ctl.State() == power.Sleeping {
		g.ctl.WakeDelay = dsl.WakeTime(s.wakeRNG)
	}
	woke := g.ctl.Touch(t)
	if woke {
		// Line becomes active: modem powers up, switch may remap (the only
		// legal remap instant), cards may wake.
		s.awaken(sh, g)
		g.modem.SetState(t, power.Waking)
		s.lineOp(sh, g.id, true, t)
		g.lastElapse = t
	}
	s.armGwCheck(sh, g)
}

// armGwCheck schedules the controller's next autonomous transition,
// skipping the push when an outstanding check already fires no later. The
// skipped case is covered because a stale pop re-arms from the then-current
// due time (see gwCheck), so exactly one live check chases each gateway's
// moving deadline instead of one per touch.
func (s *sim) armGwCheck(sh *shard, g *gateway) {
	if next := g.ctl.NextTransition(); !math.IsInf(next, 1) && next < g.checkAt {
		g.checkAt = next
		sh.push(event{t: next, kind: evGwCheck, a: g.id})
	}
}

// gwCheck fires scheduled controller transitions (wake completion or sleep
// deadline) as of sh.now. Stale events re-derive the due time and re-arm.
func (s *sim) gwCheck(sh *shard, g *gateway) {
	now := sh.now
	due := g.ctl.NextTransition()
	if math.IsInf(due, 1) || due > now+1e-9 {
		s.armGwCheck(sh, g) // superseded by later activity: chase the new deadline
		return
	}
	switch g.ctl.State() {
	case power.Waking:
		g.ctl.Advance(now)
		g.modem.SetState(due, power.On)
		s.resumeService(sh, g, now)
	case power.On:
		// Sleep deadline. A gateway with flows in flight is not idle: the
		// flow's packets are continuous traffic. Extend the idle clock
		// without advancing (Touch at the exact deadline would sleep and
		// immediately re-wake, charging a bogus 60 s stall).
		if len(g.flows) > 0 {
			g.ctl.Busy(now)
			s.armGwCheck(sh, g)
			return
		}
		s.elapse(g, now)
		g.ctl.Advance(now)
		if g.ctl.State() == power.Sleeping {
			g.modem.SetState(due, power.Sleeping)
			s.lineOp(sh, g.id, false, due)
			g.est.Reset()
			s.quiesce(sh, g)
		}
	}
	s.armGwCheck(sh, g)
}

// resumeService starts service on gateway g at now, once it serves again
// after a wake or a reboot: transport integrates from now, each flow's wake
// stall closes, the next completion is armed and the clients waiting for
// this, their home gateway, are handed back — O(|waiting|), not a scan over
// every client.
func (s *sim) resumeService(sh *shard, g *gateway, now float64) {
	g.lastElapse = now
	for _, fi := range g.flows {
		if f := &s.flows[fi]; f.stallFrom >= 0 {
			f.stalled += now - f.stallFrom
			f.stallFrom = -1
		}
	}
	s.scheduleCompletion(sh, g)
	for _, c := range g.pending {
		cl := &s.clients[c]
		cl.pendingHome = false
		cl.pendingPos = -1
		cl.assigned = g.id
	}
	g.pending = g.pending[:0]
}

// updateCards reconciles fabric fs's line-card power states with its
// switch policy. Under an alwaysOn scheme the cards never sleep.
func (s *sim) updateCards(fs *fabricState, t float64) {
	if catalogue[fs.scheme].alwaysOn {
		return
	}
	for cd, card := range fs.cards {
		if a := fs.policy.CardAwake(cd); a != (card.State() == power.On) {
			st := power.Sleeping
			if a {
				st = power.On
			}
			card.SetState(t, st)
		}
	}
}

// ---- pending-home bookkeeping ----

// markPendingHome queues client c on its home gateway's wake hand-back
// list (bh2.ReturnHome while riding a remote until home is operative).
func (s *sim) markPendingHome(c int) {
	cl := &s.clients[c]
	if cl.pendingHome {
		return
	}
	cl.pendingHome = true
	g := &s.gws[cl.home]
	cl.pendingPos = len(g.pending)
	g.pending = append(g.pending, c)
}

// unmarkPendingHome removes client c from its home gateway's hand-back
// list in O(1) (swap-remove; drain order at wake is immaterial since each
// hand-back touches only its own client).
func (s *sim) unmarkPendingHome(c int) {
	cl := &s.clients[c]
	if !cl.pendingHome {
		return
	}
	g := &s.gws[cl.home]
	last := len(g.pending) - 1
	if i := cl.pendingPos; i != last {
		moved := g.pending[last]
		g.pending[i] = moved
		s.clients[moved].pendingPos = i
	}
	g.pending = g.pending[:last]
	cl.pendingHome = false
	cl.pendingPos = -1
}

// ---- transport ----

// elapse integrates service on g's flows up to now.
func (s *sim) elapse(g *gateway, now float64) {
	dt := now - g.lastElapse
	g.lastElapse = now
	if dt <= 0 || len(g.flows) == 0 || !g.ctl.Awake() {
		return
	}
	rate := s.cfg.Trace.Cfg.BackhaulBps / 8 / float64(len(g.flows)) // bytes/s each
	var served float64
	for _, fi := range g.flows {
		f := &s.flows[fi]
		r := rate
		if w := f.capBps / 8; w < r {
			r = w
		}
		x := r * dt
		if x > f.rem {
			x = f.rem
		}
		f.rem -= x
		served += x
		if s.needDemand {
			s.clientBytes[f.client] += x
		}
	}
	// Feed the SN counter for passive load estimation.
	g.byteResidual += served
	frames := int(g.byteResidual / 1500)
	if frames > 0 {
		g.sn.Advance(frames)
		g.byteResidual -= float64(frames) * 1500
	}
}

// reapCompleted finalizes flows with no remaining bytes.
func (s *sim) reapCompleted(sh *shard, g *gateway) {
	keep := g.flows[:0]
	finished := false
	for _, fi := range g.flows {
		f := &s.flows[fi]
		// Sub-byte remainders count as done: scheduling ever-smaller
		// completion deltas would stall the clock on float precision.
		if f.rem < 1 {
			f.done = true
			f.completed = sh.now
			finished = true
		} else {
			keep = append(keep, fi)
		}
	}
	g.flows = keep
	if finished {
		g.flowsGen++           // membership changed: completion cache is stale
		s.touch(sh, g, sh.now) // completion packets reset the idle clock
	}
}

// scheduleCompletion arms the next completion check for g.
//
// The scan for the earliest-completing flow is cached per gateway: between
// membership changes of g.flows (tracked by flowsGen) processor sharing
// serves every flow at an unchanged rate, so each flow's time-to-complete
// shrinks uniformly and the argmin flow is stable — re-arming recomputes
// one flow's time instead of scanning. flowArrival keeps the cache fresh
// across appends on all-elastic gateways, making arming O(1) amortized on
// the hot path; membership changes that invalidate it (reap, migration,
// rate-capped arrivals) already pay an O(flows) elapse, so the fallback
// scan never changes the asymptotics.
func (s *sim) scheduleCompletion(sh *shard, g *gateway) {
	g.complEpoch++
	if len(g.flows) == 0 || !g.ctl.Awake() {
		return
	}
	rate := s.cfg.Trace.Cfg.BackhaulBps / 8 / float64(len(g.flows))
	var tMin float64
	if g.schedGen == g.flowsGen {
		f := &s.flows[g.schedMin]
		r := rate
		if w := f.capBps / 8; w < r {
			r = w
		}
		tMin = f.rem / r
	} else {
		tMin = math.Inf(1)
		allUncapped := true
		for _, fi := range g.flows {
			f := &s.flows[fi]
			r := rate
			if w := f.capBps / 8; w < r {
				r = w
				allUncapped = false
			}
			if t := f.rem / r; t < tMin {
				tMin = t
				g.schedMin = fi
			}
		}
		g.schedGen = g.flowsGen
		g.schedAllUncapped = allUncapped
	}
	if tMin < 1e-9 {
		tMin = 1e-9 // keep the clock moving even for sub-byte remainders
	}
	sh.push(event{t: sh.now + tMin, kind: evComplete, a: g.id, aux: g.complEpoch})
}

// ---- traffic entry points ----

// flowArrival starts trace flow idx on lane sh. The strategy's route is
// safe to call from a shard lane because shard-local schemes route purely
// (the client's immutable home); every other scheme runs single-lane.
func (s *sim) flowArrival(sh *shard, idx, c int, up bool) {
	f := &s.flows[idx]
	f.up = up
	if up {
		f.done = false
		return // the evaluation simulates downlink only
	}
	s.lastTraffic[c] = sh.now
	gw := s.strat.route(s, c)
	if s.hasFailures {
		s.noteService(c, gw, sh.now)
	}
	g := &s.gws[gw]
	s.elapse(g, sh.now)
	capBps := s.linkBps(c, gw)
	if r := s.cfg.Trace.Flows[idx].Rate; r > 0 && r < capBps {
		capBps = r
	}
	*f = flowState{
		gw: gw, client: c,
		rem:       float64(s.cfg.Trace.Flows[idx].Bytes),
		capBps:    capBps,
		stallFrom: -1,
	}
	// On an all-elastic gateway every flow is served at the shared rate, so
	// the earliest completion is simply the flow with the fewest remaining
	// bytes (rem/rate is monotone in rem) — the cache survives the append
	// and the upcoming scheduleCompletion arms in O(1).
	cacheLive := g.schedGen == g.flowsGen && g.schedAllUncapped
	g.flows = append(g.flows, idx)
	g.flowsGen++
	if cacheLive {
		newRate := s.cfg.Trace.Cfg.BackhaulBps / 8 / float64(len(g.flows))
		if f.capBps/8 >= newRate {
			if f.rem < s.flows[g.schedMin].rem {
				g.schedMin = idx
			}
			g.schedGen = g.flowsGen
		}
	}
	s.touch(sh, g, sh.now)
	if !g.ctl.Awake() {
		f.stallFrom = sh.now
	}
	s.scheduleCompletion(sh, g)
}

func (s *sim) keepalive(sh *shard, c int, bytes int64) {
	s.lastTraffic[c] = sh.now
	gw := s.strat.route(s, c)
	if s.hasFailures {
		s.noteService(c, gw, sh.now)
	}
	g := &s.gws[gw]
	if g.failDepth > 0 {
		return // packet lost: no wake, no frames on the air, no demand served
	}
	s.touch(sh, g, sh.now)
	g.sn.Advance(wifi.FramesFor(bytes))
	if s.needDemand {
		s.clientBytes[c] += float64(bytes)
	}
}

// linkBps returns the usable client-gateway rate; falls back to the
// neighbor rate when the scheme routed outside the measured range (Optimal
// fallback only).
func (s *sim) linkBps(c, gw int) float64 {
	if w := s.cfg.Topo.LinkBps(c, gw); w > 0 {
		return w
	}
	return s.cfg.Topo.NeighborBps
}

// ---- metrics ----

// tick samples the metric series on the main lane. It visits only the
// active-gateway sets — O(awake), not O(all gateways): a sleeping gateway
// needs no controller advance (nothing is due), no transport elapse (it
// carries no flows), and its estimator observations would be zero-frame
// samples invisible to every query (the wake-time catch-up in awaken
// reproduces the estimator state exactly). Its power draw integrates in
// closed form below. Gateways that the set still carries but whose
// controller already crossed its sleep deadline (the deadline fell on this
// very tick) are handled identically to the dense loop: advanced, sampled,
// and counted offline.
//
// The per-gateway prep (tickPrep) runs first, on the pool's workers in a
// sharded run and inline otherwise; the float reductions below then run
// serially in ascending gateway id order, so the sums are bit-identical at
// every shard count.
func (s *sim) tick() {
	s.tickCount++
	s.lastTickT = s.now
	if s.pool != nil {
		s.pool.run(poolCmd{kind: cmdPrep, t: s.now})
	} else {
		s.tickPrep(&s.shards[0], s.now)
	}
	var userW, ispW float64
	online, awake := 0, 0 // full-scenario gateway counts
	for si := range s.shards {
		sh := &s.shards[si]
		for w, word := range sh.bits {
			base := sh.lo + w<<6
			for word != 0 {
				gwID := base + bits.TrailingZeros64(word)
				g := &s.gws[gwID]
				word &= word - 1
				// Gateway gwID stands for n identically-behaving full
				// gateways (n is 1 in a full run). The draw terms are
				// integer watt constants, so the weighted product equals
				// the full run's repeated additions exactly.
				n := s.weight(gwID)
				if g.ctl.State() != power.Sleeping {
					online += n
				}
				userW += float64(n) * g.ctl.Device().DrawW()
				ispW += float64(n) * g.modem.DrawW()
				awake += n
			}
		}
	}
	// Closed-form integration of the quiescent population: every gateway
	// outside the set has its device and port modem Sleeping, each drawing
	// power.SleepWatts. The paper counts sleeping devices as off
	// (SleepWatts == 0), which is what keeps this term bit-identical to
	// the dense loop's interleaved additions; if SleepWatts ever becomes
	// nonzero this stays correct but float summation order changes.
	nSleep := float64(s.plan.FullGateways - awake)
	userW += nSleep * power.SleepWatts
	ispW += nSleep * power.SleepWatts
	s.userTS.Add(s.now, userW)
	s.gwTS.Add(s.now, float64(online))
	// Each fabric continues the shared partial ISP sum with its own cards
	// and the shelf, in the order a run of that scheme alone adds them.
	for i := range s.fabrics {
		fs := &s.fabrics[i]
		fabW := ispW
		for _, cd := range fs.cards {
			fabW += cd.DrawW()
		}
		fabW += s.shelf.DrawW()
		fs.powerTS.Add(s.now, userW+fabW)
		fs.ispTS.Add(s.now, fabW)
		fs.cardTS.Add(s.now, float64(fs.policy.AwakeCardCount()))
	}
	if s.hasFailures {
		stranded := 0
		for si := range s.shards {
			stranded += s.shards[si].strandedN
		}
		s.strandedTS.Add(s.now, float64(stranded))
	}
}

// tickPrep advances, elapses and samples every gateway in lane sh's active
// set to now. Everything touched is private to the gateway, so shard lanes
// prep concurrently without synchronization.
func (s *sim) tickPrep(sh *shard, now float64) {
	for w, word := range sh.bits {
		base := sh.lo + w<<6
		for word != 0 {
			g := &s.gws[base+bits.TrailingZeros64(word)]
			word &= word - 1
			g.ctl.Advance(now)
			// The estimator needs service progress up to now, not just up
			// to the last transport event. Schemes that sample no load
			// elapse here too: where the service intervals split shows in
			// every pinned result.
			s.elapse(g, now)
			if s.needLoad {
				g.est.Observe(now, g.sn.Value())
			}
		}
	}
}

// result folds the run into the cell's Result and one per sibling,
// expanded through the quotient plan to the full scenario's shape. The
// gateway-side terms are summed once; each fabric then continues the ISP
// energy from the shared modem sum with its own cards and the shelf, in
// the order a run of that scheme alone adds them.
func (s *sim) result() *Result {
	qp := s.plan
	res := &Result{
		Duration:      s.end,
		UserPowerW:    s.userTS,
		OnlineGWs:     s.gwTS,
		FCT:           make([]float64, len(s.flows)),
		FlowStall:     make([]float64, len(s.flows)),
		GatewayOnTime: make([]float64, qp.FullGateways),
		Moves:         s.moves, Resolves: s.resolves, OptGap: s.optGap,
		DecisionReasons: s.reasons,
	}
	for i := range s.flows {
		f := &s.flows[i]
		if f.done && !f.up {
			res.FCT[i] = f.completed - s.cfg.Trace.Flows[i].Start
			res.FlowStall[i] = f.stalled
		} else {
			res.FCT[i] = nan
			res.FlowStall[i] = nan
		}
	}
	// Fold the energy sums in ascending full gateway id order: the addend
	// sequence is then identical to the full run's (class members behave
	// identically), so the float sums are bit-exact, not just algebraically
	// equal. Device reads at a fixed time are idempotent, so re-reading the
	// representative once per mirrored line is safe.
	var modemJ float64
	for line, q := range qp.FullHome {
		g := &s.gws[q]
		res.GatewayOnTime[line] = g.ctl.Device().OnTimeAt(s.end)
		res.Energy.UserJ += g.ctl.Device().EnergyAt(s.end)
		modemJ += g.modem.EnergyAt(s.end)
		res.Wakeups += g.ctl.Device().Wakeups()
	}
	res.Availability = 1
	if s.hasFailures {
		// Close the open intervals at the horizon, then reduce the
		// per-client accumulators in index order (bit-stable at every shard
		// and worker count).
		for c := range s.strandedOn {
			if s.strandedOn[c] >= 0 {
				s.strandedSec[c] += s.end - s.strandedFrom[c]
			}
		}
		for gwID := range s.gws {
			if g := &s.gws[gwID]; g.failDepth > 0 {
				s.downTime[gwID] += s.end - g.downSince
			}
		}
		// Fold through the full scenario's client id order. Collapse
		// eligibility forces failure-affected gateways into singleton
		// classes, so every nonzero accumulator maps 1:1 onto a full client
		// and the addend sequence matches the full run's.
		var strandedSec, recSec float64
		recN := 0
		for _, qc := range qp.FullClientOf {
			strandedSec += s.strandedSec[qc]
			recSec += s.reconnSec[qc]
			recN += int(s.reconnN[qc])
		}
		res.GatewayDownTime = make([]float64, qp.FullGateways)
		for line, q := range qp.FullHome {
			res.GatewayDownTime[line] = s.downTime[q]
		}
		res.Failures = s.failures
		res.FlowsAborted = s.flowsAborted
		res.StrandedSeconds = strandedSec
		res.Reconnects = recN
		if recN > 0 {
			res.MeanRecoveryS = recSec / float64(recN)
		}
		if n := float64(qp.FullClients) * s.end; n > 0 {
			res.Availability = 1 - strandedSec/n
		}
		res.StrandedClients = s.strandedTS
	}
	if len(s.fabrics) > 1 {
		res.Siblings = make([]*Result, len(s.fabrics)-1)
	}
	for i := range s.fabrics {
		r := res
		if i > 0 {
			sib := *res
			sib.Siblings = nil
			r = &sib
			res.Siblings[i-1] = r
		}
		fs := &s.fabrics[i]
		r.Scheme = fs.scheme
		r.PowerW, r.ISPPowerW, r.OnlineCards = fs.powerTS, fs.ispTS, fs.cardTS
		r.Energy.ISPJ = modemJ
		r.CardOnTime = make([]float64, len(fs.cards))
		for cd, dev := range fs.cards {
			r.Energy.ISPJ += dev.EnergyAt(s.end)
			r.CardOnTime[cd] = dev.OnTimeAt(s.end)
		}
		r.Energy.ISPJ += s.shelf.EnergyAt(s.end)
	}
	return res
}
