// Package campaign compiles a declarative scenario spec (dsl.Spec) into a
// deterministic batch of simulations and runs it to completion with
// checkpoint/resume.
//
// A spec expands into *cells*: the cross-product of scenario variants
// (sweep-axis values), seeds and schemes, in a fixed enumeration order
// (variants outermost, then seeds, then schemes). Cells that share a
// (variant, seed) pair share one generated trace and topology fixture —
// the runner's read-only-fixture contract — so adding schemes to a
// campaign costs simulation time only.
//
// Progress is checkpointed to <out>/manifest.jsonl: a header line binding
// the manifest to the spec's hash, then one line per finished cell in
// cell order (runner.RunStream guarantees completed prefixes), each
// carrying the reduced metrics row. Resuming skips every cell already in
// the manifest and rebuilds artifacts from the union, so an interrupted
// then resumed campaign writes byte-identical artifacts to an
// uninterrupted one, at any worker count.
//
// Plan.Simulate runs the same cells without manifest or artifacts and
// hands each cell's sim.Result to the caller instead.
package campaign

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// SchemeByName maps a canonical scheme name (dsl.SchemeNames) to the
// sim.Scheme it denotes; see sim.ParseScheme.
func SchemeByName(name string) (sim.Scheme, error) { return sim.ParseScheme(name) }

// Cell is one (scenario variant, seed, scheme) simulation in a campaign.
type Cell struct {
	Index    int        // position in enumeration order
	Scenario string     // variant label, e.g. "base" or "mean-in-range=7,k=2"
	Seed     int64      // scenario-generation and simulation seed
	Scheme   sim.Scheme // sleep scheme this cell simulates
	variant  int        // index into Plan.variants
}

// Key identifies the cell in the manifest, stable across processes.
func (c Cell) Key() string {
	return fmt.Sprintf("%s|%s|%d", c.Scenario, c.Scheme, c.Seed)
}

// variant is one sweep-axis combination: the base spec with the axis
// overrides applied.
type variant struct {
	label string
	spec  dsl.Spec
}

// Plan is a compiled campaign: the normalized spec plus its full cell
// enumeration.
type Plan struct {
	Spec     dsl.Spec // the normalized spec (defaults applied)
	Hash     string   // content hash binding manifests to this spec
	Cells    []Cell   // full cell list in enumeration order
	variants []variant
}

// Compile validates the spec and expands sweeps, seeds and schemes into
// the campaign's cell list. Every variant is re-validated after its axis
// overrides (a sweep can produce an invalid combination, e.g. more
// gateways than clients). All compilation errors wrap ErrSpecInvalid.
func Compile(spec dsl.Spec) (*Plan, error) {
	spec, err := spec.WithDefaults()
	if err != nil {
		return nil, specErr(err)
	}
	p := &Plan{Spec: spec, Hash: spec.Hash()}

	combos := enumerate(spec.Sweeps)
	for _, combo := range combos {
		v := variant{spec: spec}
		var parts []string
		for i, sw := range spec.Sweeps {
			applyAxis(&v.spec, sw.Axis, combo[i])
			parts = append(parts, fmt.Sprintf("%s=%s", sw.Axis, strconv.FormatFloat(combo[i], 'g', -1, 64)))
		}
		v.label = "base"
		if len(parts) > 0 {
			v.label = strings.Join(parts, ",")
		}
		v.spec.Sweeps = nil
		if v.spec, err = v.spec.WithDefaults(); err != nil {
			return nil, specErr(fmt.Errorf("campaign: variant %s: %v", v.label, err))
		}
		p.variants = append(p.variants, v)
	}

	for vi, v := range p.variants {
		for _, seed := range spec.Seeds {
			for _, name := range spec.Schemes {
				sc, err := sim.ParseScheme(name)
				if err != nil {
					return nil, specErr(err)
				}
				p.Cells = append(p.Cells, Cell{
					Index: len(p.Cells), Scenario: v.label,
					Seed: seed, Scheme: sc, variant: vi,
				})
			}
		}
	}
	return p, nil
}

// enumerate returns the cross-product of sweep values in enumeration
// order: the first sweep is the outermost loop. With no sweeps it returns
// one empty combination (the base variant).
func enumerate(sweeps []dsl.Sweep) [][]float64 {
	combos := [][]float64{nil}
	for _, sw := range sweeps {
		var next [][]float64
		for _, c := range combos {
			for _, v := range sw.Values {
				combo := append(append([]float64(nil), c...), v)
				next = append(next, combo)
			}
		}
		combos = next
	}
	return combos
}

func applyAxis(s *dsl.Spec, axis string, v float64) {
	switch axis {
	case "mean-in-range":
		s.Topology.MeanInRange = v
	case "clients":
		s.Trace.Clients = int(v)
	case "gateways":
		s.Trace.Gateways = int(v)
	case "k":
		s.K = int(v)
	case "idle-timeout":
		s.IdleTimeout = v
	case "duration":
		s.Duration = v
	}
}

// fixture is the shared read-only scenario of one (variant, seed) group:
// the full trace/topology pair, the symmetry geometry (nil when the spec
// does not admit exact collapse), or both when the group mixes collapsible
// and coupled schemes.
type fixture struct {
	tr   *trace.Trace
	tp   *topology.Topology
	geom *collapseGeometry
}

// buildFixture generates one variant's scenario at one seed. Deterministic
// in (variant spec, seed). needFull/needQuot select which of the two
// scenario shapes to materialize — skipping the full city-scale trace is
// where collapse earns its speedup — but the collapse *geometry* is always
// derived when the spec admits it, so reduced rows carry the same
// collapsed_classes value whether or not collapse actually runs. A spec
// that turns out not to collapse (geom == nil) falls back to the full
// scenario regardless of needFull.
func buildFixture(sp dsl.Spec, seed int64, needFull, needQuot bool) (*fixture, error) {
	g, err := buildGraph(sp, seed)
	if err != nil {
		return nil, err
	}
	f := &fixture{geom: buildGeometry(sp, seed, g)}
	if f.geom == nil {
		needFull = true
	} else if needQuot {
		if err := f.geom.materialize(sp, seed); err != nil {
			return nil, err
		}
	}
	if !needFull {
		return f, nil
	}
	if f.tr, f.tp, err = fullScenario(sp, seed, g); err != nil {
		return nil, err
	}
	return f, nil
}

// BuildScenario generates the concrete (trace, topology) pair a normalized
// spec describes for one seed — exactly what a campaign cell simulates,
// minus the scheme and shelf choices. Times throughout are simulated
// seconds from 0 and sizes are bytes; the same (spec, seed) always yields
// byte-identical scenarios. It exists for harnesses that need to confront
// the engine with an independently built scenario, e.g. the analytic
// oracle's reference interpreter (internal/oracle), which re-simulates the
// identical trace on its own straight-line event loop.
func BuildScenario(sp dsl.Spec, seed int64) (*trace.Trace, *topology.Topology, error) {
	g, err := buildGraph(sp, seed)
	if err != nil {
		return nil, nil, err
	}
	return fullScenario(sp, seed, g)
}

// fullScenario generates the full trace and attaches its clients to the
// gateway graph g (nil for binomial topologies, see buildGraph).
func fullScenario(sp dsl.Spec, seed int64, g *topology.Graph) (*trace.Trace, *topology.Topology, error) {
	cfg, err := traceConfig(sp, seed)
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	tp, err := buildTopology(sp, tr, g, seed)
	if err != nil {
		return nil, nil, err
	}
	return tr, tp, nil
}

// traceConfig maps a trace spec to a generator config. Profile families
// reuse the calibrated defaults: "office" is the §5 evaluation workload,
// everything else derives from the residential city workload.
func traceConfig(sp dsl.Spec, seed int64) (trace.Config, error) {
	t := sp.Trace
	var cfg trace.Config
	switch t.Profile {
	case "office":
		cfg = trace.DefaultSimConfig(seed)
	case "residential", "flash-crowd", "diurnal-mix", "churn":
		cfg = trace.DefaultCityConfig(seed)
	default:
		return cfg, fmt.Errorf("campaign: unknown trace profile %q", t.Profile)
	}
	cfg.Clients, cfg.APs = t.Clients, t.Gateways
	cfg.Duration = sp.Duration
	if t.Placement == "symmetric" {
		cfg.Symmetric = true
	}
	// Profile parameters were resolved by dsl's WithDefaults: the pointers
	// relevant to the chosen profile are non-nil in a normalized spec.
	switch t.Profile {
	case "flash-crowd":
		cfg.Profile = trace.FlashCrowd(cfg.Profile, *t.FlashHour, *t.FlashHours, *t.FlashScale)
	case "diurnal-mix":
		cfg.Profile = trace.Mix(cfg.Profile, trace.WeekendProfile, *t.WeekendFrac)
	case "churn":
		cfg = cfg.WithChurn(*t.ChurnFactor)
	}
	return cfg, nil
}

// buildGraph constructs the gateway adjacency graph of graph-backed
// topology kinds. Binomial topologies have no explicit graph (coverage is
// drawn per client) and return nil — which also rules them out of the
// neighborhood canonicalization the collapse pass needs.
func buildGraph(sp dsl.Spec, seed int64) (*topology.Graph, error) {
	gws, mir := sp.Trace.Gateways, sp.Topology.MeanInRange
	switch sp.Topology.Kind {
	case "overlap":
		return topology.OverlapGraph(gws, mir, seed)
	case "grid-city":
		return topology.GridCity(gws, mir, seed)
	case "binomial":
		return nil, nil
	}
	return nil, fmt.Errorf("campaign: unknown topology kind %q", sp.Topology.Kind)
}

func buildTopology(sp dsl.Spec, tr *trace.Trace, g *topology.Graph, seed int64) (*topology.Topology, error) {
	if g != nil {
		return topology.FromOverlap(g, tr.ClientAP)
	}
	return topology.Binomial(sp.Trace.Gateways, tr.ClientAP, sp.Topology.MeanInRange, seed)
}

// shelf sizes the DSLAM: the spec's explicit shape, the paper's 4x12
// evaluation shelf when it fits, else enough 48-port cards for every
// gateway rounded up to whole groups of the k-switch size.
func shelf(sp dsl.Spec) dsl.DSLAM {
	if sp.Shelf.Cards > 0 {
		return dsl.DSLAM{Cards: sp.Shelf.Cards, PortsPerCard: sp.Shelf.PortsPerCard}
	}
	if sp.Trace.Gateways <= dsl.EvalDSLAM.Ports() {
		return dsl.EvalDSLAM
	}
	cards := (sp.Trace.Gateways + 47) / 48
	group := sp.K
	if group <= 0 {
		group = 4
	}
	if r := cards % group; r != 0 {
		cards += group - r
	}
	return dsl.DSLAM{Cards: cards, PortsPerCard: 48}
}

// simConfig assembles the sim.Config of one cell over its fixture. A
// collapsed cell runs the materialized quotient scenario with the engine
// expansion plan (and the remapped failure schedule); the shelf is sized
// for the full gateway count either way, so line-to-port assignment — and
// with it every card-level draw — is identical in both shapes.
func simConfig(v dsl.Spec, f *fixture, c Cell, collapsed bool) sim.Config {
	cfg := sim.Config{
		Scheme: c.Scheme, Seed: c.Seed,
		DSLAM: shelf(v), K: v.K,
		IdleTimeout: v.IdleTimeout,
	}
	if collapsed {
		cfg.Trace, cfg.Topo, cfg.Quotient = f.geom.tr, f.geom.tp, f.geom.plan
		if v.Failures != nil {
			cfg.Failures = f.geom.failures
		}
		return cfg
	}
	cfg.Trace, cfg.Topo = f.tr, f.tp
	if v.Failures != nil {
		cfg.Failures = failurePlan(v, c.Seed)
	}
	return cfg
}

// failurePlan expands the spec's failures block into one cell's concrete
// schedule. The gateways a crash hits and the area an outage covers are
// drawn from the seed (stream 0xfa17) — not from the scheme — so every
// scheme of a (variant, seed) row faces the identical failure schedule
// and their robustness metrics are directly comparable, while different
// seeds explore different placements.
func failurePlan(v dsl.Spec, seed int64) sim.FailurePlan {
	f := v.Failures
	nGW := v.Trace.Gateways
	r := stats.NewRNG(seed, 0xfa17)
	plan := sim.FailurePlan{RebootMeanSec: f.RebootMean, RebootSigma: f.RebootSigma}
	for _, c := range f.Crashes {
		n := c.Count
		if n > nGW {
			n = nGW
		}
		for _, gw := range r.Perm(nGW)[:n] {
			plan.Crashes = append(plan.Crashes, sim.GatewayCrash{At: c.At, Gateway: gw, RebootSec: c.Reboot})
		}
	}
	for _, o := range f.Outages {
		width := int(math.Round(o.Frac * float64(nGW)))
		if width < 1 {
			width = 1
		}
		if width > nGW {
			width = nGW
		}
		from := r.Intn(nGW - width + 1)
		gws := make([]int, width)
		for i := range gws {
			gws[i] = from + i
		}
		plan.Outages = append(plan.Outages, sim.OutageWindow{
			Start: o.Start, DurationSec: o.Duration, Gateways: gws,
		})
	}
	return plan
}

// Row is one cell's reduced result — everything the artifacts need, small
// enough to live in the manifest so resume never re-simulates.
type Row struct {
	Scenario string `json:"scenario"` // variant label (Cell.Scenario)
	Scheme   string `json:"scheme"`   // canonical scheme name
	Seed     int64  `json:"seed"`
	// Energy over the cell's horizon, kilowatt-hours, rounded to 6
	// significant digits (round6): total and its user/ISP split.
	EnergyKWh float64 `json:"energy_kwh"`
	UserKWh   float64 `json:"user_kwh"`
	ISPKWh    float64 `json:"isp_kwh"`
	// Wakeups counts gateway Sleeping→Waking transitions; Moves counts
	// DSLAM line remaps; Resolves counts controller re-solves
	// (optimal/centralized only).
	Wakeups  int `json:"wakeups"`
	Moves    int `json:"moves"`
	Resolves int `json:"resolves"`
	// MeanOnlineGWs is the time-average number of non-sleeping gateways.
	MeanOnlineGWs float64 `json:"mean_online_gws"`
	// FCT percentiles, seconds, over downlink flows (uplink flows are
	// unsimulated and excluded).
	FCTP50 float64 `json:"fct_p50"`
	FCTP95 float64 `json:"fct_p95"`
	// PowerHourly is the mean total draw of each simulated hour, watts;
	// present only when the spec requested the "power" output.
	PowerHourly []float64 `json:"power_hourly,omitempty"`

	// Robustness metrics of failure-injection campaigns. A nil
	// Availability marks a failure-free cell (the omitempty trio keeps
	// failure-free manifest rows byte-identical to pre-failure ones).
	// StrandedS is total stranded client-seconds; Availability is
	// 1 − stranded fraction ∈ [0, 1].
	StrandedS    float64  `json:"stranded_s,omitempty"`
	Reconnects   int      `json:"reconnects,omitempty"`
	Availability *float64 `json:"availability,omitempty"`

	// CollapsedClasses is the number of gateway equivalence classes of a
	// symmetry-eligible cell (0 when the cell cannot collapse). It is a
	// property of the spec — set identically under collapse auto and off —
	// never of how the cell happened to be simulated.
	CollapsedClasses int `json:"collapsed_classes,omitempty"`
}

// reduce summarizes one simulation result into its manifest row.
// withPower additionally keeps the hourly mean power series (requested by
// the "power" output). For a collapsed run every aggregate in res is
// already expanded to the full scenario by the engine; only the per-flow
// FCT list is still quotient-shaped and needs multiplicity weighting.
func reduce(c Cell, duration float64, res *sim.Result, withPower bool, f *fixture, collapsed bool) Row {
	const kWh = 3.6e6
	row := Row{
		Scenario:  c.Scenario,
		Scheme:    c.Scheme.String(),
		Seed:      c.Seed,
		EnergyKWh: res.Energy.Total() / kWh,
		UserKWh:   res.Energy.UserJ / kWh,
		ISPKWh:    res.Energy.ISPJ / kWh,
		Wakeups:   res.Wakeups,
		Moves:     res.Moves,
		Resolves:  res.Resolves,
	}
	hours := duration / 3600
	row.MeanOnlineGWs = round6(sim.MeanOver(res.OnlineGWs, 0, hours))
	var weights []float64
	if collapsed {
		weights = f.geom.flowWeights()
	}
	row.FCTP50, row.FCTP95 = fctPercentiles(res.FCT, weights)
	if f != nil && f.geom != nil && sim.Collapsible(c.Scheme) {
		row.CollapsedClasses = len(f.geom.q.Classes)
	}
	if res.GatewayDownTime != nil {
		row.StrandedS = round6(res.StrandedSeconds)
		row.Reconnects = res.Reconnects
		a := round6(res.Availability)
		row.Availability = &a
	}
	if withPower {
		n := int(math.Ceil(hours))
		for h := 0; h < n; h++ {
			row.PowerHourly = append(row.PowerHourly, round6(sim.MeanOver(res.PowerW, float64(h), float64(h+1))))
		}
	}
	row.EnergyKWh, row.UserKWh, row.ISPKWh = round6(row.EnergyKWh), round6(row.UserKWh), round6(row.ISPKWh)
	return row
}

// fctPercentiles returns the 50th and 95th percentile downlink flow
// completion times, ignoring the NaN entries of unsimulated uplink flows:
// the values at ranks int(q·(n−1)) of the sorted FCTs. A collapsed run
// passes each flow's class multiplicity as w (nil for a full run): flow i
// then stands for w[i] identical full-scenario flows, and the ranks index
// the multiplicity-expanded list, so the values are exactly those the
// full run reports. An order statistic does not depend on how ties are
// ordered, so selection picks what sorting would, in O(n): p95 first,
// then p50 among the flows faster than p95.
func fctPercentiles(fct, w []float64) (p50, p95 float64) {
	xs := make([]float64, 0, len(fct))
	var ws []float64
	if w != nil {
		ws = make([]float64, 0, len(fct))
	}
	for i, v := range fct {
		if math.IsNaN(v) {
			continue
		}
		xs = append(xs, v)
		if w != nil {
			ws = append(ws, w[i])
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	total := weightOf(ws, 0, len(xs))
	r50, r95 := int(0.50*float64(total-1)), int(0.95*float64(total-1))
	p95, nLess, wLess := selectRank(xs, ws, r95)
	p50 = p95
	if r50 < wLess {
		if ws != nil {
			ws = ws[:nLess]
		}
		p50, _, _ = selectRank(xs[:nLess], ws, r50)
	}
	return round6(p50), round6(p95)
}

// selectRank returns the value at weighted rank r (0-based) of xs, where
// xs[i] counts ws[i] times (once when ws is nil). It reorders xs and ws
// so that exactly the elements smaller than the value come first, in
// xs[:nLess], weighing wLess in total. It is quickselect over a three-way
// partition, so a run of equal values costs one pass; a rank past the
// total weight selects the maximum.
func selectRank(xs, ws []float64, r int) (v float64, nLess, wLess int) {
	lo, hi := 0, len(xs)
	below := 0 // weight of xs[:lo], all smaller than xs[lo:hi]
	for {
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Partition xs[lo:hi] into < p, == p and > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case xs[i] < p:
				swapPair(xs, ws, lt, i)
				lt++
				i++
			case xs[i] > p:
				gt--
				swapPair(xs, ws, i, gt)
			default:
				i++
			}
		}
		wLt, wEq := weightOf(ws, lo, lt), weightOf(ws, lt, gt)
		switch {
		case r < below+wLt:
			hi = lt
		case r < below+wLt+wEq || gt == hi:
			return p, lt, below + wLt
		default:
			below += wLt + wEq
			lo = gt
		}
	}
}

// weightOf is the total weight of xs[lo:hi]: hi-lo when ws is nil.
func weightOf(ws []float64, lo, hi int) int {
	if ws == nil {
		return hi - lo
	}
	n := 0
	for _, w := range ws[lo:hi] {
		n += int(w)
	}
	return n
}

func swapPair(xs, ws []float64, i, j int) {
	xs[i], xs[j] = xs[j], xs[i]
	if ws != nil {
		ws[i], ws[j] = ws[j], ws[i]
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// round6 rounds to 6 significant-ish decimal digits so manifest rows and
// artifacts are stable text regardless of accumulated float formatting.
func round6(x float64) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	f, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	if err != nil {
		return x
	}
	return f
}
