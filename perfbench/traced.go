package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/runner"
)

// tracedRep runs one traced repetition: the workload itself with spans
// around every call into a layer. A batch workload then sends its spec
// once through the campaign server, whose artifacts must equal the
// in-process run's, and runs the layer pass over its campaign. The drill
// has no layer pass: its spec injects failures, which only the campaign
// knows how to expand.
func tracedRep(ctx context.Context, w workload, seed int64, rep int, dir string) (*repResult, error) {
	tr := newTracer(w.name, rep)
	root, endRoot := tr.begin("bench.rep", 0)
	var out *repResult
	if w.jobs > 0 {
		var jobs []drillJob
		var err error
		if out, jobs, err = drillRep(ctx, w, seed, dir, tr, root); err != nil {
			return nil, err
		}
		if err := checkIdentity(ctx, w, seed, jobs, dir, tr, root); err != nil {
			out.Errors = append(out.Errors, err.Error())
		}
	} else {
		sp, err := w.spec(seed, 0)
		if err != nil {
			return nil, err
		}
		var rows []campaign.Row
		if out, rows, err = tracedBatch(ctx, sp, dir, tr, root); err != nil {
			return nil, err
		}
		if rows != nil {
			if err := layerPass(ctx, sp, rows, tr, root); err != nil {
				out.Errors = append(out.Errors, err.Error())
			}
		}
	}
	endRoot()
	out.Spans = tr.all()
	out.Layers = layerMetrics(out.Spans, tr.counts)
	return out, nil
}

// tracedBatch runs a batch workload's campaign with its worker budget
// sampled, then the same spec as one job of an in-process campaign server.
func tracedBatch(ctx context.Context, sp dsl.Spec, dir string, tr *tracer, root int) (*repResult, []campaign.Row, error) {
	if err := timedCompile(sp, tr, root); err != nil {
		return nil, nil, err
	}
	budget := runner.NewBudget(0)
	stopSampling := sampleBusy(budget)
	run, err := runCampaign(ctx, sp, filepath.Join(dir, "campaign"), budget, tr, root)
	if err != nil {
		return nil, nil, err
	}
	tr.count("runner.busy_frac", stopSampling())
	tr.count("campaign.manifest_kb", float64(run.manifest)/1e3)
	tr.count("campaign.artifact_kb", float64(len(run.summary)+len(run.results))/1e3)
	out := &repResult{
		Wall:      run.wall,
		Attempted: len(sp.Schemes) * len(sp.Seeds),
		Failed:    run.failed,
		Digests:   []artifactSums{sumArtifacts(run.summary, run.results)},
	}
	rows, err := checkArtifacts(sp, run.summary, run.results)
	if err != nil {
		out.Errors = append(out.Errors, err.Error())
	}

	body, err := json.Marshal(sp)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve(ctx, filepath.Join(dir, "simd"), runner.NewBudget(0))
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(srv.base, tr)
	job := cl.run(ctx, body, root)
	cl.hc.CloseIdleConnections()
	srv.stop()
	switch {
	case job.err != nil:
		out.Errors = append(out.Errors, fmt.Sprintf("campaign server: %v", job.err))
	case !bytes.Equal(job.summary, run.summary) || !bytes.Equal(job.results, run.results):
		out.Errors = append(out.Errors, "campaign server artifacts differ from the in-process run's")
	}
	return out, rows, nil
}

func timedCompile(sp dsl.Spec, tr *tracer, parent int) error {
	_, err := tr.timed("campaign.Compile", parent, func() error {
		_, err := campaign.Compile(sp)
		return err
	})
	return err
}

// layerMetrics derives the per-layer metrics of one traced repetition from
// its spans and counters. Times summed over a layer are self times. A
// layer the workload never calls reads 0, its rates and ratios too.
func layerMetrics(spans []Span, counts map[string]float64) map[string]float64 {
	st := summarize(spans)
	med := func(name string) float64 { return median(st.durs[name]) }
	m := map[string]float64{
		"trace.gen_s":           st.self["trace.Generate"],
		"trace.events":          counts["trace.events"],
		"trace.alloc_mb":        counts["trace.alloc_mb"],
		"topology.graph_s":      st.self["topology.graph"],
		"topology.attach_s":     st.self["topology.FromOverlap"],
		"quotient.build_s":      st.self["campaign.BuildCollapsedScenario"],
		"quotient.classes":      counts["quotient.classes"],
		"sim.run_s":             st.self["sim.RunContext"],
		"sim.cell_max_s":        percentile(st.durs["sim.RunContext"], 100),
		"sim.alloc_mb":          counts["sim.alloc_mb"],
		"sim.wakeups":           counts["sim.wakeups"],
		"sim.shard_speedup":     ratio(med("sim.shards1"), med("sim.shards2")),
		"runner.busy_frac":      counts["runner.busy_frac"],
		"campaign.compile_s":    med("campaign.Compile"),
		"campaign.first_row_s":  med("campaign.first_row"),
		"campaign.tail_s":       med("campaign.tail"),
		"campaign.job_s":        med("campaign.job"),
		"campaign.manifest_kb":  counts["campaign.manifest_kb"],
		"campaign.artifact_kb":  counts["campaign.artifact_kb"],
		"simd.post_ms":          med("simd.post") * 1e3,
		"simd.first_row_ms":     med("simd.first_row") * 1e3,
		"simd.job_p95_ms":       percentile(st.durs["simd.job"], 95) * 1e3,
		"simd.events_ms":        med("simd.events") * 1e3,
		"simd.artifact_ms":      med("simd.artifact") * 1e3,
		"simd.http_overhead_ms": (med("simd.job") - med("campaign.job")) * 1e3,
	}
	m["trace.events_per_s"] = ratio(m["trace.events"], m["trace.gen_s"])
	m["sim.events_per_s"] = ratio(counts["sim.events"], m["sim.run_s"])
	return m
}

// ratio is a / b, or 0 when nothing was measured (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
