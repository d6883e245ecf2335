// Package sim is the trace-driven discrete-event simulator behind the §5
// evaluation: it replays a generated wireless trace over a gateway
// topology and a DSLAM model under one of the paper's schemes and reports
// energy, online-device and QoS metrics for Figs 6-10 and the §5.2.3
// line-card table.
//
// Model summary (docs/SCHEMES.md states each scheme's rules and the tests
// that enforce them):
//
//   - Flows share a gateway's backhaul by processor sharing, bounded by the
//     client-gateway wireless rate; keepalives are instantaneous but reset
//     the gateway's idle clock — the "continuous light traffic" that defeats
//     plain Sleep-on-Idle.
//   - Gateways follow soi.Controller (60 s idle timeout, 60 s wake).
//     Sleeping gateways power off their DSLAM port modem; a line card
//     sleeps when no active line terminates on it (per the switch policy).
//   - BH² terminals estimate loads with the wifi SN-counting estimator and
//     run bh2.Decide on their own jittered period.
//   - The Optimal scheme re-solves Eq (1) every minute (package optimal)
//     with instant, disruption-free migration and a full switch — the
//     paper's upper bound.
package sim

import (
	"context"
	"fmt"
	"math"

	"insomnia/internal/bh2"
	"insomnia/internal/dsl"
	"insomnia/internal/power"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// Scheme selects the algorithm under evaluation.
type Scheme int

// The schemes of §5.1 plus the ablation variants of §5.2.3 and the
// centralized-controller extension the paper's §3.3 sketches.
const (
	NoSleep Scheme = iota
	SoI
	SoIKSwitch
	SoIFullSwitch
	BH2KSwitch
	BH2FullSwitch
	BH2NoBackup // BH² without backup, k-switch
	Optimal
	// Centralized is the §3.3 "more centralized/coordinated" variant
	// (in the spirit of Jardosh et al.'s green WLANs): a controller with
	// global load knowledge re-solves the assignment every minute like
	// Optimal, but lives with reality — woken gateways take the full
	// wake delay before they carry traffic, flows never migrate
	// mid-transfer, and lines go through k-switches, not a full switch.
	// It bounds how much of the Optimal margin coordination alone buys.
	Centralized
)

// String implements fmt.Stringer with the scheme's canonical name.
func (s Scheme) String() string {
	if !s.known() {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return catalogue[s].name
}

// GatewaySide names the gateway and terminal behaviour a scheme runs: two
// schemes with the same GatewaySide differ only in the ISP-side switch
// fabric, which is a pure sink, so they compute bit-identical gateway
// trajectories and one run can serve both (Config.Siblings). The families
// are {SoI, SoI+k-switch, SoI+full-switch} and {BH2+k-switch,
// BH2+full-switch}. BH2-nobackup stands alone (its decisions run with
// Backup forced to 0), as do no-sleep, optimal and centralized.
func GatewaySide(sc Scheme) Scheme {
	if !sc.known() {
		return sc
	}
	return catalogue[sc].side
}

// Config describes one simulation run.
type Config struct {
	Trace *trace.Trace       // generated workload (downlink flows drive QoS)
	Topo  *topology.Topology // client-gateway reachability

	// DSLAM is the ISP shelf shape (default: 4x12, §5.1). Its lines are
	// wired to ports by dsl.RandomAssignment under Seed.
	DSLAM dsl.DSLAM
	K     int // k-switch size for *KSwitch schemes (default 4)

	Scheme Scheme
	// Siblings lists further schemes with Scheme's gateway side
	// (GatewaySide) to evaluate in the same run: the engine drives one
	// switch fabric per scheme off the shared line wake/sleep sequence and
	// returns their results in Result.Siblings, in this order, each
	// bit-identical to a separate run of that scheme.
	Siblings []Scheme
	BH2      bh2.Params // zero value takes bh2.DefaultParams

	IdleTimeout float64 // default dsl.IdleTimeoutSeconds
	// RandomWake draws each wake-up duration from the measured
	// distribution (mean 60 s, resyncs up to 3 min — §5.1) instead of the
	// constant dsl.WakeSeconds. Used by the wake-time sensitivity ablation.
	RandomWake bool

	// Seed drives the port wiring, the reboot draws and every scheme RNG
	// stream.
	Seed int64

	// Failures is the deterministic failure-injection plan: gateway crashes
	// with rebooting restarts and area power-outage windows (failures.go).
	// The zero value injects nothing. Reboot draws come from Seed, so the
	// plan expands identically at every shard and worker count.
	Failures FailurePlan

	// Shards is the engine shard count: >= 2 partitions the event engine
	// by gateway across that many worker goroutines (see shard.go), 0 or 1
	// runs the classic serial engine. Only no-sleep and the SoI family
	// without RandomWake partition; every other scheme couples gateways
	// (shared RNG streams, global re-solves) and runs serially at any
	// value. Results are byte-identical at every value, so the knob trades
	// wall-clock only, never fidelity.
	Shards int

	// Quotient marks this run as the collapsed form of a larger symmetric
	// scenario (internal/quotient): gateway q of this run stands for every
	// full-scenario gateway g with Quotient.FullHome[g] == q. The DSLAM,
	// its port wiring and switch policy stay full-sized — each wake/sleep
	// of q fans out over its mirrored lines — and Result is expanded back
	// to the full scenario's shape with bit-exact accounting. Only
	// Collapsible schemes accept a plan, as Scheme or as a sibling;
	// everything else errors, because their cross-gateway coupling (shared
	// RNG streams, k-switch remap order, global re-solves) breaks the class
	// symmetry. nil runs the scenario as its own singleton quotient.
	Quotient *QuotientPlan
}

// QuotientPlan describes how a collapsed run maps back onto the full
// symmetric scenario it stands for. The campaign collapse pass builds one
// from internal/quotient. A run without one takes the singleton plan —
// every gateway and client stands for itself with weight 1 — so full and
// collapsed runs share the engine's one weighted, mirrored result path.
type QuotientPlan struct {
	// FullGateways and FullClients size the full scenario. The DSLAM must
	// have at least FullGateways ports: the shelf carries every full line.
	FullGateways int
	FullClients  int
	// FullHome[g] is the quotient gateway (class index) standing for full
	// gateway g. Ascending iteration over FullHome is the full scenario's
	// gateway id order — result() folds energy and wakeups in exactly that
	// order so the float sums are bit-identical to the full run's.
	FullHome []int32
	// FullClientOf[c] is the quotient client standing for full client c.
	// Failure runs fold the per-client stranded/reconnect accumulators
	// through it in full client id order (again for bit-stable sums).
	FullClientOf []int32
}

// validate checks a plan against the quotient topology sizes.
func (qp *QuotientPlan) validate(nGW, nCl int) error {
	if qp.FullGateways < nGW {
		return fmt.Errorf("sim: quotient plan covers %d full gateways but the run has %d", qp.FullGateways, nGW)
	}
	if len(qp.FullHome) != qp.FullGateways {
		return fmt.Errorf("sim: quotient FullHome has %d entries for %d full gateways", len(qp.FullHome), qp.FullGateways)
	}
	seen := make([]bool, nGW)
	for g, q := range qp.FullHome {
		if q < 0 || int(q) >= nGW {
			return fmt.Errorf("sim: quotient FullHome[%d] = %d outside [0, %d)", g, q, nGW)
		}
		seen[q] = true
	}
	for q, ok := range seen {
		if !ok {
			return fmt.Errorf("sim: quotient gateway %d mirrors no full gateway", q)
		}
	}
	if qp.FullClients < nCl {
		return fmt.Errorf("sim: quotient plan covers %d full clients but the run has %d", qp.FullClients, nCl)
	}
	if len(qp.FullClientOf) != qp.FullClients {
		return fmt.Errorf("sim: quotient FullClientOf has %d entries for %d full clients", len(qp.FullClientOf), qp.FullClients)
	}
	for c, qc := range qp.FullClientOf {
		if qc < 0 || int(qc) >= nCl {
			return fmt.Errorf("sim: quotient FullClientOf[%d] = %d outside [0, %d)", c, qc, nCl)
		}
	}
	return nil
}

func (c Config) withDefaults() (Config, error) {
	if c.Trace == nil || c.Topo == nil {
		return c, fmt.Errorf("sim: missing trace or topology")
	}
	if c.Topo.NumClients() != c.Trace.Cfg.Clients {
		return c, fmt.Errorf("sim: topology has %d clients, trace %d", c.Topo.NumClients(), c.Trace.Cfg.Clients)
	}
	if c.Topo.NumGateways < c.Trace.Cfg.APs {
		return c, fmt.Errorf("sim: topology has %d gateways, trace needs %d", c.Topo.NumGateways, c.Trace.Cfg.APs)
	}
	// Every series needs at least one tick-wide bin; written so NaN fails.
	if !(c.Trace.Cfg.Duration >= tickSeconds) {
		return c, fmt.Errorf("sim: trace duration %v is shorter than the %v s metric tick", c.Trace.Cfg.Duration, tickSeconds)
	}
	if !c.Scheme.known() {
		return c, fmt.Errorf("sim: unknown scheme %v", c.Scheme)
	}
	for _, sc := range c.Siblings {
		if GatewaySide(sc) != GatewaySide(c.Scheme) {
			return c, fmt.Errorf("sim: sibling %v does not share %v's gateway side", sc, c.Scheme)
		}
	}
	if c.DSLAM.Cards == 0 {
		c.DSLAM = dsl.EvalDSLAM
	}
	if err := c.DSLAM.Validate(); err != nil {
		return c, err
	}
	// Under a quotient plan the shelf carries the full scenario's lines:
	// the port wiring, card population and policy are full-sized even
	// though only one gateway per class is simulated.
	nLines := c.Topo.NumGateways
	if c.Quotient != nil {
		if err := c.Quotient.validate(c.Topo.NumGateways, c.Topo.NumClients()); err != nil {
			return c, err
		}
		for _, sc := range append([]Scheme{c.Scheme}, c.Siblings...) {
			if !Collapsible(sc) {
				return c, fmt.Errorf("sim: scheme %v cannot run collapsed (cross-gateway coupling)", sc)
			}
		}
		if c.RandomWake {
			return c, fmt.Errorf("sim: RandomWake cannot run collapsed (shared wake-delay stream)")
		}
		nLines = c.Quotient.FullGateways
	}
	if c.DSLAM.Ports() < nLines {
		return c, fmt.Errorf("sim: %d gateways exceed %d DSLAM ports", nLines, c.DSLAM.Ports())
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.BH2.PeriodSec == 0 {
		c.BH2 = bh2.DefaultParams()
	}
	if c.Scheme == BH2NoBackup {
		c.BH2.Backup = 0
	}
	if err := c.BH2.Validate(); err != nil {
		return c, err
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = dsl.IdleTimeoutSeconds
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("sim: negative shard count %d", c.Shards)
	}
	var err error
	if c.Failures, err = c.Failures.normalized(c.Topo.NumGateways); err != nil {
		return c, err
	}
	return c, nil
}

// Result collects everything the evaluation figures need from one run.
type Result struct {
	Scheme   Scheme
	Duration float64

	// Per-time-bin series (one bin per simulated second, the engine's
	// metric tick, averaged into hourly bins by the figure code). Each is
	// a step function that costs its changes: the draws change only when
	// a gateway or card wakes or sleeps. A collapsed run's series are
	// already weighted to the full scenario.
	PowerW      *stats.TimeSeries // total instantaneous draw
	UserPowerW  *stats.TimeSeries // gateways only
	ISPPowerW   *stats.TimeSeries // shelf + cards + port modems
	OnlineGWs   *stats.TimeSeries
	OnlineCards *stats.TimeSeries

	// FCT[i] is the completion time (seconds) of downlink flow i in
	// trace.Flows order; NaN for uplink flows (not simulated).
	FCT []float64

	// FlowStall[i] is the seconds flow i spent waiting for a waking
	// gateway — the delay component the paper's Fig 9a charges (its
	// simulator did not model bandwidth contention).
	FlowStall []float64

	// GatewayOnTime[g] is gateway g's total non-sleeping seconds.
	GatewayOnTime []float64

	// CardOnTime[cd] is line card cd's total non-sleeping seconds — the
	// per-card introspection hook the analytic oracle (internal/oracle)
	// uses to compare measured card-sleep fractions against Eq 2. Under a
	// quotient run the shelf is full-sized, so the slice already has the
	// full scenario's card count.
	CardOnTime []float64

	Energy   power.Accounting // total joules split user/ISP
	Wakeups  int              // gateway wake transitions
	Moves    int              // BH2 re-associations
	Resolves int              // Optimal solver invocations
	OptGap   int              // resolves not proven optimal

	// DecisionReasons counts BH2 decision outcomes by reason — the §5.1
	// oscillation diagnostics.
	DecisionReasons map[bh2.Reason]int

	// Robustness metrics, populated only when Config.Failures is non-empty
	// (GatewayDownTime non-nil is the sentinel; Availability is 1 on
	// failure-free runs).
	Failures        int     // distinct gateway-down episodes
	FlowsAborted    int     // in-flight flows killed by a power cut
	StrandedSeconds float64 // total client-seconds without service after a failed attempt
	Reconnects      int     // stranded clients that regained service
	MeanRecoveryS   float64 // mean stranded-to-reconnected interval
	Availability    float64 // 1 - StrandedSeconds / (clients * Duration)
	GatewayDownTime []float64
	StrandedClients *stats.TimeSeries // stranded-client count per sample bin

	// Siblings holds one result per Config.Siblings entry, in that order;
	// nil when the run had none. A sibling owns its fabric's fields —
	// Scheme, PowerW, ISPPowerW, OnlineCards, CardOnTime and Energy.ISPJ —
	// and shares every gateway-side slice, map and series (FCT, FlowStall,
	// GatewayOnTime, UserPowerW, OnlineGWs, DecisionReasons,
	// GatewayDownTime, StrandedClients) with this result. Treat those as
	// read-only: a write through one result shows in all of them.
	Siblings []*Result
}

// SavingsVs returns total energy savings of r against a baseline run.
func (r *Result) SavingsVs(base *Result) float64 { return r.Energy.SavingsVs(base.Energy) }

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation under a context. Cancellation is
// checked at epoch granularity — every coordinator barrier of a sharded
// run, every few thousand events of a serial one — so a canceled run stops
// promptly (microseconds of simulation work, never a full run). A canceled
// run returns ctx's cause wrapped in an error and no Result: partial
// metrics would not be deterministic, so none are reported. Runs that
// complete are byte-identical to Run — the context is only ever polled,
// never woven into the event order.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: canceled before start: %w", context.Cause(ctx))
	}
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	s.ctx = ctx
	s.run()
	if s.aborted {
		return nil, fmt.Errorf("sim: canceled at t=%.0fs: %w", s.now, context.Cause(ctx))
	}
	return s.result(), nil
}

// MeanOver averages a result series over the time window [fromH, toH)
// hours: the Welford mean of the bins whose midpoints fall in the window,
// taken in bin order as the series walks its runs.
func MeanOver(ts *stats.TimeSeries, fromH, toH float64) float64 {
	var w stats.Welford
	ts.Each(func(i int, mean float64) {
		t := ts.BinTime(i) / 3600
		if t >= fromH && t < toH {
			w.Add(mean)
		}
	})
	return w.Mean()
}

// SavingsSeries computes per-bin fractional savings of run vs base power.
func SavingsSeries(run, base *Result) []float64 {
	out := make([]float64, run.PowerW.Bins())
	for i := range out {
		b := base.PowerW.MeanAt(i)
		if b > 0 {
			out[i] = 1 - run.PowerW.MeanAt(i)/b
		}
	}
	return out
}

// ISPShareSeries computes, per bin, the ISP fraction of total power savings
// vs the baseline (Fig 8). Bins with no savings report 0.
func ISPShareSeries(run, base *Result) []float64 {
	out := make([]float64, run.PowerW.Bins())
	for i := range out {
		saved := base.PowerW.MeanAt(i) - run.PowerW.MeanAt(i)
		ispSaved := base.ISPPowerW.MeanAt(i) - run.ISPPowerW.MeanAt(i)
		if saved > 1e-9 && ispSaved > 0 {
			out[i] = ispSaved / saved
		}
	}
	return out
}

var nan = math.NaN()
