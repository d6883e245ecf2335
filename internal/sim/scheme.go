package sim

import (
	"fmt"

	"insomnia/internal/kswitch"
)

// schemeRow is one scheme's static facts. Everything the engine, the
// campaign layer and the CLIs need to know about a scheme, short of the
// code in its strategy, is a column of its row in catalogue.
type schemeRow struct {
	name   string   // canonical spelling: String, ParseScheme, dsl.SchemeNames
	side   Scheme   // gateway side (GatewaySide)
	fabric fabric   // DSLAM switch fabric the lines go through (§4)
	strat  strategy // routing, decisions and re-solves

	collapsible bool // see Collapsible
	// shardLocal: every non-tick event is statically shard-local, so the
	// sharded engine (shard.go) may run the scheme byte-identically to the
	// serial engine. Schemes that couple gateways through a shared RNG or
	// a global re-solve run serially at every shard count.
	shardLocal bool
	// alwaysOn: every device starts On, the idle timeout is infinite and
	// line cards never sleep.
	alwaysOn bool
	// fiatWake: gateways sleep only when the resolver closes them
	// (infinite idle timeout) and wake with zero delay.
	fiatWake bool
	// readsDemand: the strategy reads the per-client demand counters
	// (sim.clientBytes); the engine skips that accounting — and keeps the
	// sharded tick prep free of shared writes — for every other scheme.
	readsDemand bool
	// readsLoad: the strategy reads the gateways' load estimators
	// (gateway.est); the engine samples them every tick only when it does.
	readsLoad bool
}

// catalogue holds every scheme's row, indexed by Scheme. BH2-nobackup
// shares BH2+k-switch's strategy and fabric; Config.withDefaults forces
// its cfg.BH2.Backup to 0, which is why it has a gateway side of its own.
var catalogue = [...]schemeRow{
	NoSleep:       {name: "no-sleep", side: NoSleep, fabric: fixedFabric, strat: noSleepScheme{}, collapsible: true, shardLocal: true, alwaysOn: true},
	SoI:           {name: "SoI", side: SoI, fabric: fixedFabric, strat: baseScheme{}, collapsible: true, shardLocal: true},
	SoIKSwitch:    {name: "SoI+k-switch", side: SoI, fabric: kSwitchFabric, strat: baseScheme{}, shardLocal: true},
	SoIFullSwitch: {name: "SoI+full-switch", side: SoI, fabric: fullSwitchFabric, strat: baseScheme{}, collapsible: true, shardLocal: true},
	BH2KSwitch:    {name: "BH2+k-switch", side: BH2KSwitch, fabric: kSwitchFabric, strat: bh2Scheme{}, readsLoad: true},
	BH2FullSwitch: {name: "BH2+full-switch", side: BH2KSwitch, fabric: fullSwitchFabric, strat: bh2Scheme{}, readsLoad: true},
	BH2NoBackup:   {name: "BH2-nobackup+k-switch", side: BH2NoBackup, fabric: kSwitchFabric, strat: bh2Scheme{}, readsLoad: true},
	Optimal:       {name: "optimal", side: Optimal, fabric: fullSwitchFabric, strat: optimalScheme{}, fiatWake: true, readsDemand: true},
	Centralized:   {name: "centralized+k-switch", side: Centralized, fabric: kSwitchFabric, strat: centralizedScheme{}, readsDemand: true},
}

// known reports whether sc has a catalogue row.
func (sc Scheme) known() bool { return sc >= 0 && int(sc) < len(catalogue) }

// ParseScheme maps a canonical scheme name (Scheme.String, the names specs
// use) to its Scheme.
func ParseScheme(name string) (Scheme, error) {
	for sc := range catalogue {
		if catalogue[sc].name == name {
			return Scheme(sc), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scheme %q", name)
}

// Collapsible reports whether sc may run as the gateway-equivalence
// quotient of a symmetric scenario (Config.Quotient): every client routes
// home and nothing couples gateways but a fabric whose repacking depends
// only on how many lines are awake, so the members of a class behave
// identically. The other schemes couple gateways through shared RNG
// streams, k-switch remap order or global re-solves.
func Collapsible(sc Scheme) bool { return sc.known() && catalogue[sc].collapsible }

// strategy is the behaviour half of a scheme. The engine core (engine.go)
// owns time, transport and power accounting, and the catalogue row the
// static facts; what is left — routing, periodic decisions and re-solves —
// lives behind this interface, one scheme_*.go file per family.
// Strategies hold no mutable state of their own: all run state stays on
// *sim, so concurrent runs (internal/runner) never share anything writable.
type strategy interface {
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
}

// baseScheme is plain Sleep-on-Idle (§2.3) and the defaults every other
// strategy embeds: clients stick to their home gateway and there are no
// scheme events. The three SoI rows differ only in their fabric.
type baseScheme struct{}

func (baseScheme) postInit(*sim)             {}
func (baseScheme) seedEvents(*sim)           {}
func (baseScheme) route(s *sim, c int) int   { return s.clients[c].home }
func (baseScheme) onDecide(*sim, int)        {}
func (baseScheme) onResolve(*sim)            {}
func (baseScheme) onFailure(*sim, int, bool) {}

// fabric selects the DSLAM switch model a scheme runs over (§4).
type fabric int

const (
	fixedFabric      fabric = iota // hard-wired line-to-port mapping
	kSwitchFabric                  // k-switch groups (§4.2)
	fullSwitchFabric               // idealized any-to-any switch
)

func (f fabric) build(cfg Config, portOf []int) (kswitch.Policy, error) {
	switch f {
	case kSwitchFabric:
		return kswitch.NewKSwitch(cfg.DSLAM, cfg.K, portOf)
	case fullSwitchFabric:
		return kswitch.NewFullSwitch(cfg.DSLAM, len(portOf))
	default:
		return kswitch.NewFixed(cfg.DSLAM, portOf)
	}
}
