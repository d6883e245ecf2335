package sim

import (
	"fmt"

	"insomnia/internal/kswitch"
	"insomnia/internal/power"
)

// strategy is the scheme-specific half of the simulator. The engine core
// (engine.go) owns time, transport and power accounting; everything that
// differs between the paper's schemes — initial device states, switch
// fabric, routing, periodic decisions and re-solves — lives behind this
// interface, one scheme_*.go file per scheme family. Strategies hold no
// mutable state of their own: all run state stays on *sim, so concurrent
// runs (internal/runner) never share anything writable.
type strategy interface {
	// initialState is the power state gateways, modems and cards start in.
	initialState() power.State
	// timeouts returns the gateway controller's idle timeout and wake delay.
	timeouts(cfg Config) (idle, wake float64)
	// newPolicy builds the DSLAM switch policy the scheme runs over.
	newPolicy(cfg Config) (kswitch.Policy, error)
	// postInit runs after devices and policy exist, before any event fires.
	postInit(s *sim)
	// seedEvents pushes the scheme's recurring events at t=0.
	seedEvents(s *sim)
	// route picks the gateway that will carry new traffic from client c,
	// waking devices as the scheme allows.
	route(s *sim, c int) int
	// onDecide handles an evDecide event (BH² schemes only).
	onDecide(s *sim, c int)
	// onResolve handles an evResolve event (coordinated schemes only).
	onResolve(s *sim)
	// onFailure is the failure-injection hook, fired after gateway gw loses
	// (up false) or regains (up true) power. Coordinated schemes use it to
	// react from the ISP side; distributed schemes are blinded — BH2
	// terminals only notice failures through missing beacons at their next
	// decision, and plain SoI not at all.
	onFailure(s *sim, gw int, up bool)
	// sleepCards reports whether line cards may follow the switch policy to
	// sleep (false under no-sleep).
	sleepCards() bool
	// parallelMode classifies how far the sharded engine may parallelize
	// the scheme while staying byte-identical to the serial engine (see
	// shard.go): modeLocal when every non-tick event is statically
	// shard-local, modeTick when the event order couples shards through a
	// shared RNG but the tick work is per-gateway, modeSerial otherwise.
	parallelMode() engineMode
	// usesDemand reports whether the scheme reads the per-client demand
	// counters (sim.clientBytes); the engine skips that accounting — and
	// keeps the parallel tick free of shared writes — when it does not.
	usesDemand() bool
	// usesLoad reports whether the scheme reads the gateways' load
	// estimators (gateway.est); the engine samples them every tick only
	// when it does.
	usesLoad() bool
}

// newStrategy maps a Scheme constant to its strategy implementation.
func newStrategy(sc Scheme) (strategy, error) {
	switch sc {
	case NoSleep:
		return noSleepScheme{}, nil
	case SoI:
		return soiScheme{fabric: fixedFabric}, nil
	case SoIKSwitch:
		return soiScheme{fabric: kSwitchFabric}, nil
	case SoIFullSwitch:
		return soiScheme{fabric: fullSwitchFabric}, nil
	case BH2KSwitch, BH2NoBackup: // no-backup differs only via cfg.BH2.Backup
		return bh2Scheme{fabric: kSwitchFabric}, nil
	case BH2FullSwitch:
		return bh2Scheme{fabric: fullSwitchFabric}, nil
	case Optimal:
		return optimalScheme{}, nil
	case Centralized:
		return centralizedScheme{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %v", sc)
	}
}

// baseScheme supplies the defaults shared by every scheme: gateways start
// asleep with the configured timeouts, clients stick to their home gateway,
// cards may sleep, and there are no periodic scheme events.
type baseScheme struct{}

func (baseScheme) initialState() power.State              { return power.Sleeping }
func (baseScheme) timeouts(cfg Config) (float64, float64) { return cfg.IdleTimeout, cfg.WakeDelay }
func (baseScheme) postInit(*sim)                          {}
func (baseScheme) seedEvents(*sim)                        {}
func (baseScheme) route(s *sim, c int) int                { return s.clients[c].home }
func (baseScheme) onDecide(*sim, int)                     {}
func (baseScheme) onResolve(*sim)                         {}
func (baseScheme) onFailure(*sim, int, bool)              {}
func (baseScheme) sleepCards() bool                       { return true }
func (baseScheme) parallelMode() engineMode               { return modeSerial }
func (baseScheme) usesDemand() bool                       { return false }
func (baseScheme) usesLoad() bool                         { return false }

// fabric selects the DSLAM switch model a scheme runs over (§4).
type fabric int

const (
	fixedFabric      fabric = iota // hard-wired line-to-port mapping
	kSwitchFabric                  // k-switch groups (§4.2)
	fullSwitchFabric               // idealized any-to-any switch
)

func (f fabric) build(cfg Config) (kswitch.Policy, error) {
	switch f {
	case kSwitchFabric:
		return kswitch.NewKSwitch(cfg.DSLAM, cfg.K, cfg.PortOf)
	case fullSwitchFabric:
		return kswitch.NewFullSwitch(cfg.DSLAM, cfg.PortOf)
	default:
		return kswitch.NewFixed(cfg.DSLAM, cfg.PortOf)
	}
}
