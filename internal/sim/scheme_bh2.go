package sim

import (
	"insomnia/internal/bh2"
	"insomnia/internal/kswitch"
	"insomnia/internal/power"
	"insomnia/internal/stats"
)

// bh2Scheme runs the paper's distributed BH² terminal algorithm (§3.2):
// each terminal periodically observes in-range gateway loads through the
// passive wifi SN-counting estimator and decides on its own jittered clock
// whether to hitch-hike onto a neighbor or return home. The no-backup
// ablation reuses this strategy with cfg.BH2.Backup forced to 0.
type bh2Scheme struct {
	baseScheme
	fabric fabric
}

func (sc bh2Scheme) newPolicy(cfg Config) (kswitch.Policy, error) {
	return sc.fabric.build(cfg)
}

// Decisions (and sleeping-gateway routes) consume the shared decision RNG
// in global event order, so the event loop stays serial; only the tick
// work parallelizes.
func (bh2Scheme) parallelMode() engineMode { return modeTick }

// Terminals decide from the estimated loads of the gateways in range.
func (bh2Scheme) usesLoad() bool { return true }

// seedEvents spreads the first decision of every terminal uniformly over
// one period so the population never decides in lockstep.
func (sc bh2Scheme) seedEvents(s *sim) {
	r := stats.NewRNG(s.cfg.Seed, 0x0ff5e7)
	for c := range s.clients {
		s.push(event{t: r.Float64() * s.cfg.BH2.PeriodSec, kind: evDecide, a: c})
	}
}

// route returns the terminal's current association. When the assigned
// gateway vanished, an immediate decision runs first (the terminal notices
// missing beacons right away).
func (sc bh2Scheme) route(s *sim, c int) int {
	cl := &s.clients[c]
	if s.gws[cl.assigned].ctl.State() == power.Sleeping {
		sc.apply(s, c, bh2.Decide(s.decRNG, s.cfg.BH2, cl.home, cl.assigned, sc.views(s, c)))
	}
	return cl.assigned
}

func (sc bh2Scheme) onDecide(s *sim, c int) {
	sc.decide(s, c)
	s.push(event{t: bh2.NextDecisionTime(s.decRNG, s.cfg.BH2, s.now), kind: evDecide, a: c})
}

// views assembles what terminal c can passively observe (§3.2): awake
// gateways in range with their estimated loads.
func (sc bh2Scheme) views(s *sim, c int) []bh2.GatewayView {
	rng := s.cfg.Topo.InRange(c)
	out := make([]bh2.GatewayView, 0, len(rng))
	for _, gw := range rng {
		g := &s.gws[gw]
		out = append(out, bh2.GatewayView{
			ID:     gw,
			Awake:  g.ctl.State() == power.On,
			Load:   g.est.Utilization(s.now, s.cfg.BH2.EstWindow),
			Active: g.est.ActiveWithin(s.now, s.cfg.BH2.EstWindow),
		})
	}
	return out
}

func (sc bh2Scheme) decide(s *sim, c int) {
	// Only powered-on terminals run the algorithm; "recent traffic" is the
	// observable proxy for the terminal being on (keepalives arrive every
	// few seconds while it is).
	if s.now-s.lastTraffic[c] > 2*s.cfg.BH2.EstWindow {
		return
	}
	views := sc.views(s, c)
	d := bh2.Decide(s.decRNG, s.cfg.BH2, s.clients[c].home, s.clients[c].assigned, views)
	if s.cfg.DebugDecisions != nil {
		s.cfg.DebugDecisions(s.now, c, views, d)
	}
	sc.apply(s, c, d)
}

func (sc bh2Scheme) apply(s *sim, c int, d bh2.Decision) {
	s.reasons[d.Reason]++
	cl := &s.clients[c]
	switch d.Action {
	case bh2.Move:
		if cl.assigned != d.Target {
			cl.assigned = d.Target
			s.unmarkPendingHome(c)
			s.moves++
		}
	case bh2.ReturnHome:
		home := &s.gws[cl.home]
		if home.ctl.Awake() {
			cl.assigned = cl.home
			s.unmarkPendingHome(c)
			return
		}
		if s.cfg.BH2.WakeUpHome {
			s.touch(s.main, home, s.now) // wake it up if necessary (§3.1)
		}
		if s.gws[cl.assigned].ctl.Awake() && cl.assigned != cl.home {
			// Keep riding the current remote until home is operative.
			s.markPendingHome(c)
		} else {
			cl.assigned = cl.home // nothing usable: queue at home
			s.unmarkPendingHome(c)
		}
	}
}
