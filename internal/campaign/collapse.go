package campaign

import (
	"fmt"

	"insomnia/internal/dsl"
	"insomnia/internal/quotient"
	"insomnia/internal/sim"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// Symmetry collapse: when a scenario's placement is exactly symmetric
// (trace `placement: symmetric`), gateways that serve the same number of
// clients and sit in isomorphic topology neighborhoods carry byte-identical
// workloads, so one representative per equivalence class — weighted by the
// class size — reproduces the full scenario's metrics bit-exactly (the
// engine's sim.QuotientPlan expansion). A grid city of 10k gateways
// collapses to a handful of classes, making dense sweeps 10-100x cheaper.
//
// The pass is conservative: it collapses only what is provably exact.
//
//   - Only sim.Collapsible schemes collapse; everything with
//     cross-gateway coupling — shared decision/wake RNG streams, k-switch
//     remap order, global re-solves — runs full.
//   - Only graph-backed topologies (grid-city, overlap) canonicalize;
//     binomial runs full.
//   - Failure-affected gateways are forced into singleton classes, with
//     the failure plan remapped onto their quotient ids, so crash and
//     outage dynamics stay per-gateway exact.
//   - Any structural doubt (partition covers nothing, round-robin client
//     invariant broken) falls back to full simulation silently.
//
// Artifacts are byte-identical under `collapse: auto` and `collapse: off`
// at every worker and shard count — pinned by TestCollapseByteIdentical.

// collapseGeometry is the symmetry structure of one (variant, seed) group:
// the gateway partition plus, once materialized, the quotient scenario the
// collapsible cells simulate instead of the full one.
type collapseGeometry struct {
	q *quotient.Quotient
	// failures is the group's failure plan remapped to quotient gateway
	// ids (zero when the spec has no failures block).
	failures sim.FailurePlan

	// Materialized quotient scenario (materialize): nil until a cell
	// actually runs collapsed — the class structure alone is enough for
	// the collapsed_classes column.
	tr   *trace.Trace
	tp   *topology.Topology
	plan *sim.QuotientPlan
}

// buildGeometry derives the equivalence-class structure of one (variant,
// seed) group, or nil when the spec does not admit exact collapse (not
// symmetric, no canonical graph, or nothing merges). It is a pure spec
// property — independent of the collapse mode and of the schemes — so the
// collapsed_classes column is identical whether or not collapse runs.
func buildGeometry(sp dsl.Spec, seed int64, g *topology.Graph) *collapseGeometry {
	if sp.Trace.Placement != "symmetric" || g == nil {
		return nil
	}
	nGW, nCl := sp.Trace.Gateways, sp.Trace.Clients
	var forced []bool
	var fullPlan sim.FailurePlan
	if sp.Failures != nil {
		fullPlan = failurePlan(sp, seed)
		forced = make([]bool, nGW)
		for _, c := range fullPlan.Crashes {
			forced[c.Gateway] = true
		}
		for _, o := range fullPlan.Outages {
			for _, gw := range o.Gateways {
				forced[gw] = true
			}
		}
	}
	classes := quotient.Partition(g.NeighborhoodHashes(), quotient.SymmetricCounts(nCl, nGW), forced)
	if len(classes) >= nGW {
		return nil // every class is a singleton: nothing to collapse
	}
	q, err := quotient.Build(classes, nGW, nCl)
	if err != nil {
		return nil // conservative fallback: simulate full
	}
	geom := &collapseGeometry{q: q}
	if sp.Failures != nil {
		geom.failures = remapFailures(fullPlan, q)
	}
	return geom
}

// remapFailures rewrites a full-scenario failure plan onto quotient
// gateway ids. Outage lists keep the full scenario's order, so the
// engine's reboot-draw sequence (stream 0xfa11, consumed in plan order)
// is reproduced exactly even though quotient ids are not contiguous.
func remapFailures(p sim.FailurePlan, q *quotient.Quotient) sim.FailurePlan {
	out := sim.FailurePlan{RebootMeanSec: p.RebootMeanSec, RebootSigma: p.RebootSigma}
	for _, c := range p.Crashes {
		c.Gateway = int(q.FullHome[c.Gateway])
		out.Crashes = append(out.Crashes, c)
	}
	for _, o := range p.Outages {
		gws := make([]int, len(o.Gateways))
		for i, gw := range o.Gateways {
			gws[i] = int(q.FullHome[gw])
		}
		o.Gateways = gws
		out.Outages = append(out.Outages, o)
	}
	return out
}

// materialize generates the quotient scenario: the collapsed trace (one
// round-robin slot set per class representative) and its edgeless
// topology, plus the engine plan mapping results back to the full shape.
func (geom *collapseGeometry) materialize(sp dsl.Spec, seed int64) error {
	cfg, err := traceConfig(sp, seed)
	if err != nil {
		return err
	}
	cfg.Clients, cfg.APs = geom.q.Clients, len(geom.q.Classes)
	tr, err := trace.Generate(cfg)
	if err != nil {
		return fmt.Errorf("campaign: quotient trace: %w", err)
	}
	// Collapsible schemes route every client to its home gateway, so the
	// quotient topology needs no edges — only the round-robin homes.
	tp, err := topology.FromOverlap(&topology.Graph{Adj: make([][]int, len(geom.q.Classes))}, tr.ClientAP)
	if err != nil {
		return err
	}
	geom.tr, geom.tp = tr, tp
	geom.plan = &sim.QuotientPlan{
		FullGateways: geom.q.FullGateways, FullClients: geom.q.FullClients,
		FullHome: geom.q.FullHome, FullClientOf: geom.q.FullClientOf(),
	}
	return nil
}

// BuildCollapsedScenario is BuildScenario's quotient counterpart for
// external harnesses (the analytic oracle's triangulation leg): it runs
// the same eligibility analysis and materialization the campaign collapse
// pass uses and returns the quotient trace, its edgeless topology, and
// the sim.QuotientPlan mapping results back onto the full scenario. When
// the spec does not admit exact collapse — placement not symmetric, no
// canonical graph, or nothing merges — it returns a nil plan and no
// error: the caller should simulate the full scenario instead. Failure
// blocks are rejected here (the campaign runner owns their remapping).
func BuildCollapsedScenario(sp dsl.Spec, seed int64) (*trace.Trace, *topology.Topology, *sim.QuotientPlan, error) {
	if sp.Failures != nil {
		return nil, nil, nil, fmt.Errorf("campaign: BuildCollapsedScenario does not remap failure plans")
	}
	g, err := buildGraph(sp, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	geom := buildGeometry(sp, seed, g)
	if geom == nil {
		return nil, nil, nil, nil
	}
	if err := geom.materialize(sp, seed); err != nil {
		return nil, nil, nil, err
	}
	return geom.tr, geom.tp, geom.plan, nil
}

// checkCollapse rejects a run-time collapse override other than "auto",
// "off" or "" (defer to the spec), before a job does any work.
func checkCollapse(override string) error {
	switch override {
	case "", "auto", "off":
		return nil
	}
	return fmt.Errorf("campaign: unknown collapse mode %q (known: auto, off)", override)
}

// collapseMode resolves the effective collapse mode: a run-time override
// ("auto"/"off") wins over the spec's collapse key; both default to auto.
// The mode never feeds the spec hash or the artifacts — it only chooses
// how eligible cells are simulated.
func collapseMode(override, spec string) string {
	if override != "" {
		return override
	}
	if spec != "" {
		return spec
	}
	return "auto"
}

// flowWeights returns each quotient flow's class multiplicity.
func (geom *collapseGeometry) flowWeights() []float64 {
	w := make([]float64, len(geom.tr.Flows))
	for i, f := range geom.tr.Flows {
		w[i] = geom.q.Weight[geom.tr.ClientAP[f.Client]]
	}
	return w
}
