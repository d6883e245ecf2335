package sim

import (
	"insomnia/internal/optimal"
	"insomnia/internal/power"
)

// centralizedScheme is the §3.3 coordinated variant: the same per-minute
// solve as Optimal, but applied under physical constraints — woken gateways
// pay the wake delay, in-flight flows stay where they are, lines go through
// k-switches, and gateways left out of the solution drain and sleep through
// their ordinary idle timeout rather than by fiat.
type centralizedScheme struct{ coordinatedScheme }

// route follows the controller's assignment; it may wake the assigned
// gateway from the ISP side (touch does), but traffic queues for the full
// wake delay — no fiat here. Prefer an awake in-range gateway when the
// assigned one is asleep.
func (sc centralizedScheme) route(s *sim, c int) int {
	cl := &s.clients[c]
	if g := &s.gws[cl.assigned]; g.ctl.State() != power.Sleeping {
		return cl.assigned
	}
	for _, gw := range s.cfg.Topo.InRange(c) {
		if s.gws[gw].ctl.Awake() {
			cl.assigned = gw
			return gw
		}
	}
	return cl.assigned
}

func (sc centralizedScheme) onResolve(s *sim) {
	in, users := demandInstance(s)
	if len(users) == 0 {
		return // nothing to coordinate; gateways drain on their own
	}
	sol, err := optimal.Solve(in, 50000)
	if err != nil {
		return
	}
	if !sol.Optimal {
		s.optGap++
	}
	for ui, c := range users {
		target := sol.Assign[ui][0]
		if s.clients[c].assigned != target {
			s.clients[c].assigned = target
			s.moves++
		}
	}
	// Wake the chosen gateways (ISP-side remote wake); everything else is
	// left to drain naturally. touch is gated on failed gateways, so a
	// solution that picked a dead one simply fails to wake it — the clients
	// re-route at their next traffic.
	for gwID := range s.gws {
		g := &s.gws[gwID]
		if sol.Open[gwID] && g.ctl.State() == power.Sleeping {
			s.touch(s.main, g, s.now)
		}
	}
}
