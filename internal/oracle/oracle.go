package oracle

import (
	"fmt"
	"math"

	"insomnia/internal/dsl"
	"insomnia/internal/power"
	"insomnia/internal/sim"
)

// Expected is the reference interpreter's prediction of a sim.Result, in
// the same shapes and units. Every field must match the engine's bit for
// bit on supported schemes (Diff compares with ==).
type Expected struct {
	Scheme   sim.Scheme // scheme the prediction is for
	Duration float64    // horizon (seconds)

	// FCT and FlowStall follow trace.Flows order: completion seconds and
	// wake-wait seconds for finished downlink flows, NaN otherwise.
	FCT       []float64
	FlowStall []float64

	GatewayOnTime []float64 // per-gateway non-sleeping seconds
	CardOnTime    []float64 // per-card non-sleeping seconds

	UserJ   float64 // gateway joules
	ISPJ    float64 // port modems + cards + shelf joules
	Wakeups int     // gateway Sleeping→Waking transitions
}

// Supported reports whether the exact reference interpreter covers the
// scheme: the uncoupled ones, where every gateway's trajectory is a pure
// function of its own clients' trace. Coupled schemes are checked with
// Invariants instead.
func Supported(sc sim.Scheme) bool {
	switch sc {
	case sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.SoIFullSwitch:
		return true
	}
	return false
}

// schemeParams pins the scheme-dependent knobs the interpreter needs,
// restating the engine's scheme catalogue rows (internal/sim/scheme.go):
// initial device state, effective idle timeout, switch fabric, and
// whether cards are allowed to sleep.
type schemeParams struct {
	initial    power.State
	idle       float64
	fabric     fabricKind
	sleepCards bool
}

func paramsFor(cfg *sim.Config) (schemeParams, bool) {
	switch cfg.Scheme {
	case sim.NoSleep:
		return schemeParams{initial: power.On, idle: math.Inf(1), fabric: fabFixed, sleepCards: false}, true
	case sim.SoI:
		return schemeParams{initial: power.Sleeping, idle: cfg.IdleTimeout, fabric: fabFixed, sleepCards: true}, true
	case sim.SoIKSwitch:
		return schemeParams{initial: power.Sleeping, idle: cfg.IdleTimeout, fabric: fabKSwitch, sleepCards: true}, true
	case sim.SoIFullSwitch:
		return schemeParams{initial: power.Sleeping, idle: cfg.IdleTimeout, fabric: fabFullSwitch, sleepCards: true}, true
	}
	return schemeParams{}, false
}

// mutation is the test-only fault-injection knob: the mutation check
// skews the reference's idle timeout to prove the harness actually
// detects a wrong interpretation (see mutation_test.go).
type mutation struct {
	idleSkew float64 // seconds added to the reference's idle timeout
}

// Reference interprets cfg exactly and returns the predicted result. The
// config must describe a failure-free, full (non-quotient), fixed-wake
// run of a supported scheme.
func Reference(cfg sim.Config) (*Expected, error) {
	return reference(cfg, mutation{})
}

// normalize fills the engine's defaults for exactly the fields the
// interpreter reads, so a partially-specified config means the same thing
// to both sides, and rejects configurations outside the reference's
// domain.
func normalize(cfg sim.Config) (sim.Config, schemeParams, error) {
	var p schemeParams
	if cfg.Trace == nil || cfg.Topo == nil {
		return cfg, p, fmt.Errorf("oracle: missing trace or topology")
	}
	if cfg.Quotient != nil {
		return cfg, p, fmt.Errorf("oracle: the reference interprets the full scenario; collapse the engine run, not the oracle")
	}
	if !cfg.Failures.Empty() {
		return cfg, p, fmt.Errorf("oracle: failure plans are out of the reference's domain")
	}
	if cfg.RandomWake {
		return cfg, p, fmt.Errorf("oracle: RandomWake draws from a shared RNG stream; use Invariants")
	}
	if cfg.DSLAM.Cards == 0 {
		cfg.DSLAM = dsl.EvalDSLAM
	}
	nGW := cfg.Topo.NumGateways
	if cfg.DSLAM.Ports() < nGW {
		return cfg, p, fmt.Errorf("oracle: %d gateways exceed %d DSLAM ports", nGW, cfg.DSLAM.Ports())
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = dsl.IdleTimeoutSeconds
	}
	var ok bool
	if p, ok = paramsFor(&cfg); !ok {
		return cfg, p, fmt.Errorf("oracle: no exact reference for scheme %v (coupled); use Invariants", cfg.Scheme)
	}
	return cfg, p, nil
}

func reference(cfg sim.Config, mut mutation) (*Expected, error) {
	cfg, p, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	tr := cfg.Trace
	nGW := cfg.Topo.NumGateways
	end := tr.Cfg.Duration

	// Route each trace record to its client's home gateway — the only
	// routing the uncoupled schemes perform. Uplink flows never enter
	// service (the evaluation simulates downlink only) and stay NaN.
	flowsOf := make([][]int, nGW)
	for i := range tr.Flows {
		if tr.Flows[i].Up {
			continue
		}
		gw := cfg.Topo.HomeOf[tr.Flows[i].Client]
		flowsOf[gw] = append(flowsOf[gw], i)
	}
	keepsOf := make([][]int, nGW)
	for i := range tr.Keepalives {
		gw := cfg.Topo.HomeOf[tr.Keepalives[i].Client]
		keepsOf[gw] = append(keepsOf[gw], i)
	}

	idle := p.idle + mut.idleSkew
	fs := make([]refFlow, len(tr.Flows))
	var ops []lineOp
	if cfg.Scheme == sim.NoSleep {
		// postInit: every line active from t=0, ascending gateway order.
		for g := 0; g < nGW; g++ {
			ops = append(ops, lineOp{t: 0, gw: g, wake: true})
		}
	}
	gws := make([]*refGateway, nGW)
	for g := 0; g < nGW; g++ {
		dev := newRefDevice(power.GatewayWatts, p.initial)
		rg := &refGateway{
			id:      g,
			cfg:     &cfg,
			ctl:     newRefCtl(dev, idle, dsl.WakeSeconds),
			dev:     dev,
			modem:   newRefDevice(power.ISPModemWatts, p.initial),
			fs:      fs,
			complAt: math.Inf(1),
			inSet:   p.initial != power.Sleeping,
		}
		rg.run(flowsOf[g], keepsOf[g])
		gws[g] = rg
		ops = append(ops, rg.ops...)
	}

	exp := &Expected{
		Scheme: cfg.Scheme, Duration: end,
		FCT:           make([]float64, len(tr.Flows)),
		FlowStall:     make([]float64, len(tr.Flows)),
		GatewayOnTime: make([]float64, nGW),
	}
	for i := range fs {
		f := &fs[i]
		if f.done && !tr.Flows[i].Up {
			exp.FCT[i] = f.completed - tr.Flows[i].Start
			exp.FlowStall[i] = f.stalled
		} else {
			exp.FCT[i] = math.NaN()
			exp.FlowStall[i] = math.NaN()
		}
	}
	// Fold energies in the engine's result() order — gateways ascending,
	// then cards ascending, then the shelf — so the float sums are the
	// same addend sequences, not just algebraically equal.
	for g, rg := range gws {
		exp.GatewayOnTime[g] = rg.dev.onTimeAt(end)
		exp.UserJ += rg.dev.energyAt(end)
		exp.ISPJ += rg.modem.energyAt(end)
		exp.Wakeups += rg.dev.wakeups
	}
	cards, err := replayCards(&cfg, p.fabric, p.sleepCards, p.initial, ops)
	if err != nil {
		return nil, err
	}
	exp.CardOnTime = make([]float64, len(cards))
	for cd, c := range cards {
		exp.ISPJ += c.energyAt(end)
		exp.CardOnTime[cd] = c.onTimeAt(end)
	}
	exp.ISPJ += newRefDevice(power.ShelfWatts, power.On).energyAt(end)
	return exp, nil
}

// Diff compares a reference prediction against an engine result exactly:
// every float with == (NaN matches NaN), every count with ==. It returns
// one message per disagreeing field, capped at 20.
func Diff(want *Expected, got *sim.Result) []string {
	const maxDiffs = 20
	var out []string
	add := func(format string, args ...any) {
		if len(out) < maxDiffs {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	if want.Duration != got.Duration {
		add("duration: want %v got %v", want.Duration, got.Duration)
	}
	if want.Wakeups != got.Wakeups {
		add("wakeups: want %d got %d", want.Wakeups, got.Wakeups)
	}
	if want.UserJ != got.Energy.UserJ {
		add("user energy: want %.17g got %.17g (delta %g)", want.UserJ, got.Energy.UserJ, got.Energy.UserJ-want.UserJ)
	}
	if want.ISPJ != got.Energy.ISPJ {
		add("ISP energy: want %.17g got %.17g (delta %g)", want.ISPJ, got.Energy.ISPJ, got.Energy.ISPJ-want.ISPJ)
	}
	diffSlice := func(name string, want, got []float64) {
		if len(want) != len(got) {
			add("%s: want %d entries got %d", name, len(want), len(got))
			return
		}
		for i := range want {
			if w, g := want[i], got[i]; w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
				add("%s[%d]: want %.17g got %.17g", name, i, w, g)
			}
		}
	}
	diffSlice("gateway on-time", want.GatewayOnTime, got.GatewayOnTime)
	diffSlice("card on-time", want.CardOnTime, got.CardOnTime)
	diffSlice("FCT", want.FCT, got.FCT)
	diffSlice("flow stall", want.FlowStall, got.FlowStall)
	if len(out) == maxDiffs {
		out = append(out, "... (more diffs suppressed)")
	}
	return out
}
