package sim

import (
	"insomnia/internal/optimal"
	"insomnia/internal/power"
)

// coordinatedScheme is the controller Optimal and Centralized share: it
// re-solves the assignment every resolveSeconds from every client's
// demand (demandInstance), so both runs stay on the serial engine.
type coordinatedScheme struct{ baseScheme }

func (coordinatedScheme) seedEvents(s *sim) {
	s.push(event{t: resolveSeconds, kind: evResolve})
}

// onFailure: the controller sees the line drop (loss of DSL signal) and
// queues an immediate one-shot re-solve instead of waiting out the period,
// shifting the failed area's demand onto live gateways. Recoveries wait
// for the next periodic solve. Pushing an event (rather than resolving
// inline) lets every failure of the same instant land first — an outage
// fails its whole area before the controller reacts — and the one-instant
// dedup keeps an area outage from triggering one solve per gateway.
func (coordinatedScheme) onFailure(s *sim, gw int, up bool) {
	if up || s.lastFailResolve == s.now {
		return
	}
	s.lastFailResolve = s.now
	s.push(event{t: s.now, kind: evResolve, aux: 1})
}

// optimalScheme is the paper's upper bound (§5.1): an oracle re-solves
// Eq (1) every minute over a full switch, opens exactly the chosen
// gateways by fiat (its row is fiatWake: zero wake delay, no idle sleep)
// and migrates in-flight flows with no disruption. Gateways left out of
// the solution are closed immediately. Its fiat wake (touch) is still
// gated on failed gateways — even the upper bound cannot power a dead
// line.
type optimalScheme struct{ coordinatedScheme }

// route prefers the current assignment, then any open in-range gateway,
// else opens the home gateway by fiat.
func (sc optimalScheme) route(s *sim, c int) int {
	cl := &s.clients[c]
	if g := &s.gws[cl.assigned]; g.ctl.Awake() {
		return cl.assigned
	}
	for _, gw := range s.cfg.Topo.InRange(c) {
		if s.gws[gw].ctl.Awake() {
			cl.assigned = gw
			return gw
		}
	}
	cl.assigned = cl.home
	return cl.home
}

// demandInstance snapshots each client's demand since the last re-solve
// into an Eq (1) instance, clearing the byte counters and counting the
// resolve. Shared by the Optimal and Centralized schemes so their solver
// inputs can never drift apart.
func demandInstance(s *sim) (optimal.Instance, []int) {
	nGW := s.cfg.Topo.NumGateways
	in := optimal.Instance{Q: 1, Backup: 0, Caps: make([]float64, nGW)}
	for j := range in.Caps {
		in.Caps[j] = s.cfg.Trace.Cfg.BackhaulBps
	}
	var users []int
	for c, bytes := range s.clientBytes {
		if bytes <= 0 {
			continue
		}
		d := bytes * 8 / resolveSeconds
		if d > s.cfg.Trace.Cfg.BackhaulBps {
			d = s.cfg.Trace.Cfg.BackhaulBps
		}
		row := make([]float64, nGW)
		for _, gw := range s.cfg.Topo.InRange(c) {
			row[gw] = s.cfg.Topo.LinkBps(c, gw)
			if row[gw] < d {
				row[gw] = d // in-range gateways stay eligible even at full-rate demand
			}
		}
		in.W = append(in.W, row)
		in.Demands = append(in.Demands, d)
		users = append(users, c)
	}
	for c := range s.clientBytes {
		s.clientBytes[c] = 0
	}
	s.resolves++
	return in, users
}

func (sc optimalScheme) onResolve(s *sim) {
	in, users := demandInstance(s)
	if len(users) == 0 {
		// Nobody active: close everything.
		for gwID := range s.gws {
			sc.closeGateway(s, &s.gws[gwID])
		}
		return
	}
	sol, err := optimal.Solve(in, 50000)
	if err != nil {
		// Cannot happen with the fallback-eligible W above; keep state.
		return
	}
	if !sol.Optimal {
		s.optGap++
	}
	for ui, c := range users {
		s.clients[c].assigned = sol.Assign[ui][0]
	}
	// Open/close gateways; migrate flows off closing ones first.
	for gwID := range s.gws {
		g := &s.gws[gwID]
		if sol.Open[gwID] {
			if g.ctl.State() != power.On {
				s.touch(s.main, g, s.now) // WakeDelay 0: usable immediately
				s.gwCheck(s.main, g)
			}
		}
	}
	for gwID := range s.gws {
		g := &s.gws[gwID]
		if sol.Open[gwID] || g.ctl.State() == power.Sleeping {
			continue
		}
		sc.migrateFlows(s, g)
		sc.closeGateway(s, g)
	}
	// Optimal has no siblings: its fabric is fabrics[0].
	s.updateCards(&s.fabrics[0], s.now)
}

// migrateFlows moves g's in-flight flows to their clients' new gateways
// with zero downtime (the idealized migration of §5.1).
func (sc optimalScheme) migrateFlows(s *sim, g *gateway) {
	if len(g.flows) == 0 {
		return
	}
	s.elapse(g, s.now)
	moving := g.flows
	g.flows = nil
	g.flowsGen++
	g.complEpoch++
	for _, fi := range moving {
		f := &s.flows[fi]
		target := s.clients[f.client].assigned
		tg := &s.gws[target]
		if !tg.ctl.Awake() {
			// Assignment landed on a closed gateway (client had no demand
			// this round): ride any open in-range one.
			target = sc.route(s, f.client)
			tg = &s.gws[target]
		}
		s.elapse(tg, s.now)
		f.gw = target
		f.capBps = s.linkBps(f.client, target)
		if r := s.cfg.Trace.Flows[fi].Rate; r > 0 && r < f.capBps {
			f.capBps = r
		}
		tg.flows = append(tg.flows, fi)
		tg.flowsGen++
		s.touch(s.main, tg, s.now)
		s.scheduleCompletion(s.main, tg)
	}
}

func (optimalScheme) closeGateway(s *sim, g *gateway) {
	if g.ctl.State() == power.Sleeping {
		return
	}
	s.elapse(g, s.now)
	g.ctl.Sleep(s.now)
	g.modem.SetState(s.now, power.Sleeping)
	s.fabrics[0].policy.OnSleep(g.id)
	g.est.Reset()
	s.quiesce(s.main, g)
}
