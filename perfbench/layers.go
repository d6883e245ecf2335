package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// ranCollapsed reports whether the campaign simulated row's cell on its
// symmetry quotient. Every cell whose row records gateway classes does,
// unless the spec turns collapse off.
func ranCollapsed(sp dsl.Spec, r campaign.Row) bool {
	return sp.Collapse != "off" && r.CollapsedClasses > 0
}

// shapes reports which scenario shapes the campaign built for one seed's
// group, as its rows record them: the quotient, the full scenario, or both.
func shapes(sp dsl.Spec, rows []campaign.Row, seed int64) (full, quot bool) {
	for _, r := range rows {
		if r.Seed == seed {
			c := ranCollapsed(sp, r)
			quot, full = quot || c, full || !c
		}
	}
	return full, quot
}

// layerPass re-executes a finished campaign group by group through each
// layer's public functions, timing every call: the topology graph and
// attachment, trace generation, campaign.BuildScenario and
// BuildCollapsedScenario, and one sim.RunContext per cell. A cell's engine
// config holds the spec's own settings and the scenario those two campaign
// functions return; which cells ran on the quotient is read from their
// rows. Every result must match its campaign row, or the pass fails. The
// first SoI cell also runs at one and at two engine shards.
//
// The spec must fix its dslam shape and have no failures block: the
// campaign sizes a default shelf and expands failures into schedules in
// code of its own, which the pass does not restate.
func layerPass(ctx context.Context, sp dsl.Spec, rows []campaign.Row, tr *tracer, root int) error {
	sp, err := sp.WithDefaults()
	switch {
	case err != nil:
		return err
	case sp.Shelf.Cards == 0:
		return errors.New("layer pass: the spec must fix its dslam shape")
	case sp.Failures != nil:
		return errors.New("layer pass: the spec must have no failures block")
	}
	speedup := true
	for _, seed := range sp.Seeds {
		if err := layerGroup(ctx, sp, seed, rows, &speedup, tr, root); err != nil {
			return fmt.Errorf("layer pass, seed %d: %w", seed, err)
		}
	}
	return nil
}

func layerGroup(ctx context.Context, sp dsl.Spec, seed int64, rows []campaign.Row, speedup *bool, tr *tracer, root int) error {
	gid, end := tr.begin("bench.group", root)
	defer end()
	g, err := graph(sp, seed, tr, gid)
	if err != nil {
		return err
	}
	full, quot := shapes(sp, rows, seed)
	var (
		ftr, qtr *trace.Trace
		ftp, qtp *topology.Topology
		plan     *sim.QuotientPlan
	)
	if quot {
		if _, err := tr.timed("campaign.BuildCollapsedScenario", gid, func() (err error) {
			qtr, qtp, plan, err = campaign.BuildCollapsedScenario(sp, seed)
			return err
		}); err != nil {
			return err
		}
		if plan == nil {
			return errors.New("rows ran collapsed, but the spec does not collapse")
		}
		tr.count("quotient.classes", float64(qtr.Cfg.APs))
	}
	if full {
		if _, err := tr.timed("campaign.BuildScenario", gid, func() (err error) {
			ftr, ftp, err = campaign.BuildScenario(sp, seed)
			return err
		}); err != nil {
			return err
		}
		if err := rebuild(ftr, g, tr, gid); err != nil {
			return err
		}
	}
	for _, row := range rows {
		if row.Seed != seed {
			continue
		}
		scheme, err := campaign.SchemeByName(row.Scheme)
		if err != nil {
			return err
		}
		cfg := sim.Config{
			Scheme: scheme, Seed: seed,
			DSLAM: dsl.DSLAM{Cards: sp.Shelf.Cards, PortsPerCard: sp.Shelf.PortsPerCard},
			K:     sp.K, IdleTimeout: sp.IdleTimeout, Shards: sp.Shards,
			Trace: ftr, Topo: ftp,
		}
		if ranCollapsed(sp, row) {
			cfg.Trace, cfg.Topo, cfg.Quotient = qtr, qtp, plan
		}
		res, err := simulate(ctx, "sim.RunContext", cfg, row, tr, gid)
		if err != nil {
			return err
		}
		tr.count("sim.wakeups", float64(res.Wakeups))
		tr.count("sim.events", float64(len(cfg.Trace.Flows)+len(cfg.Trace.Keepalives)))
		if scheme == sim.SoI && *speedup {
			*speedup = false
			for _, n := range []int{1, 2} {
				cfg.Shards = n
				if _, err := simulate(ctx, fmt.Sprintf("sim.shards%d", n), cfg, row, tr, gid); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// graph times the topology layer's graph generator for the spec's kind.
func graph(sp dsl.Spec, seed int64, tr *tracer, gid int) (g *topology.Graph, err error) {
	_, err = tr.timed("topology.graph", gid, func() (err error) {
		switch sp.Topology.Kind {
		case "overlap":
			g, err = topology.OverlapGraph(sp.Trace.Gateways, sp.Topology.MeanInRange, seed)
		case "grid-city":
			g, err = topology.GridCity(sp.Trace.Gateways, sp.Topology.MeanInRange, seed)
		default:
			err = fmt.Errorf("topology kind %q has no graph", sp.Topology.Kind)
		}
		return err
	})
	return g, err
}

// rebuild times the trace and topology layers on a full scenario:
// trace.Generate on the fixture's own config, which must give the
// fixture's event count back, and topology.FromOverlap on the graph. The
// results only feed the timings; the cells run on the fixture itself.
func rebuild(fixture *trace.Trace, g *topology.Graph, tr *tracer, gid int) error {
	var out *trace.Trace
	alloc, err := tr.timed("trace.Generate", gid, func() (err error) {
		out, err = trace.Generate(fixture.Cfg)
		return err
	})
	if err != nil {
		return err
	}
	n, want := len(out.Flows)+len(out.Keepalives), len(fixture.Flows)+len(fixture.Keepalives)
	if n != want {
		return fmt.Errorf("regenerated trace has %d events, the fixture %d", n, want)
	}
	tr.count("trace.alloc_mb", alloc)
	tr.count("trace.events", float64(n))
	_, err = tr.timed("topology.FromOverlap", gid, func() error {
		_, err := topology.FromOverlap(g, out.ClientAP)
		return err
	})
	return err
}

// simulate times one sim.RunContext and requires the campaign row's
// wakeups and moves back, and its energy within the rounding to six
// significant digits that the row keeps (at most 5e-6 of the value).
func simulate(ctx context.Context, span string, cfg sim.Config, row campaign.Row, tr *tracer, parent int) (*sim.Result, error) {
	var res *sim.Result
	alloc, err := tr.timed(span, parent, func() (err error) {
		res, err = sim.RunContext(ctx, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w", span, cfg.Scheme, err)
	}
	if span == "sim.RunContext" {
		tr.count("sim.alloc_mb", alloc)
	}
	e := res.Energy.Total() / 3.6e6
	if math.Abs(e-row.EnergyKWh) > 1e-5*math.Abs(e) || res.Wakeups != row.Wakeups || res.Moves != row.Moves {
		return nil, fmt.Errorf("%s %v at %d shards: %v kWh, %d wakeups, %d moves; campaign row: %v kWh, %d wakeups, %d moves",
			span, cfg.Scheme, cfg.Shards, e, res.Wakeups, res.Moves, row.EnergyKWh, row.Wakeups, row.Moves)
	}
	return res, nil
}
