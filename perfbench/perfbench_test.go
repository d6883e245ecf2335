package main

import (
	"context"
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/perf"
)

func TestWorkloadSpecsCompile(t *testing.T) {
	cells := map[string]int{"office-day": 56, "metro-sharded": 2, "metro-symmetric": 96, "simd-drill": 6}
	for _, w := range workloads {
		sp, err := w.spec(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := campaign.Compile(sp)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(p.Cells) != cells[w.name] {
			t.Errorf("%s: %d cells, want %d", w.name, len(p.Cells), cells[w.name])
		}
		if len(sp.Sweeps) > 0 {
			t.Errorf("%s: sweeps are not supported by the set-up and layer timings", w.name)
		}
		if w.jobs == 0 && (sp.Shelf.Cards == 0 || sp.Failures != nil) {
			t.Errorf("%s: the layer pass needs a fixed dslam shape and no failures", w.name)
		}
		raw, err := workloadFiles.ReadFile("workloads/" + w.name + ".yaml")
		if err != nil {
			t.Fatal(err)
		}
		file, err := dsl.ParseSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		if file.Hash() != sp.Hash() {
			t.Errorf("%s: seed 1 does not run the file's own seeds %v (got %v)", w.name, file.Seeds, sp.Seeds)
		}
	}
}

func TestSeedsNeverShared(t *testing.T) {
	for _, w := range workloads {
		seen := map[int64]string{}
		for _, s := range []int64{1, 2, 7} {
			for job := 0; job < max(w.jobs, 1); job++ {
				sp, err := w.spec(s, job)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range sp.Seeds {
					if prev, ok := seen[x]; ok {
						t.Fatalf("%s: scenario seed %d used by %s and by seed %d job %d", w.name, x, prev, s, job)
					}
					seen[x] = w.name
				}
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		okay bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.okay {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.p, tc.okay)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median(xs[:4]); m != 3 {
		t.Errorf("median of 5,1,4,2 = %v", m)
	}
	if p := percentile(xs, 95); p != 5 {
		t.Errorf("p95 = %v", p)
	}
	if p := percentile(xs, 40); p != 2 {
		t.Errorf("p40 = %v", p)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end float64) Span {
		return Span{ID: id, Parent: parent, Start: start, End: end}
	}
	for _, tc := range []struct {
		name  string
		spans []Span
		want  float64 // self time of span 1
	}{
		{"leaf", []Span{sp(1, 0, 0, 10)}, 10},
		{"disjoint children", []Span{sp(1, 0, 0, 10), sp(2, 1, 1, 3), sp(3, 1, 5, 6)}, 7},
		{"overlapping children", []Span{sp(1, 0, 0, 10), sp(2, 1, 1, 4), sp(3, 1, 3, 6)}, 5},
		{"child inside child", []Span{sp(1, 0, 0, 10), sp(2, 1, 2, 8), sp(3, 1, 3, 4)}, 4},
		{"child past the parent", []Span{sp(1, 0, 0, 10), sp(2, 1, 8, 12)}, 8},
		{"grandchild ignored", []Span{sp(1, 0, 0, 10), sp(2, 1, 0, 2), sp(3, 2, 0, 9)}, 8},
		{"children cover all", []Span{sp(1, 0, 0, 10), sp(2, 1, 0, 6), sp(3, 1, 5, 10)}, 0},
	} {
		if got := selfTimes(tc.spans)[1]; got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPinnedDigests(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want, ok := d[w.name][1]
		if !ok {
			t.Fatalf("%s: no digests pinned for the default seed", w.name)
		}
		if err := d.check(w.name, 1, want); err != nil {
			t.Errorf("%s: pinned digests do not match themselves: %v", w.name, err)
		}
		bad := want
		bad.Results = strings.Repeat("0", len(bad.Results))
		if err := d.check(w.name, 1, bad); err == nil {
			t.Errorf("%s: a corrupted results.json digest passed", w.name)
		}
		bad = want
		bad.Summary = "x" + bad.Summary[1:]
		if err := d.check(w.name, 1, bad); err == nil {
			t.Errorf("%s: a corrupted summary.csv digest passed", w.name)
		}
		if err := d.check(w.name, -5, bad); err != nil {
			t.Errorf("%s: an unpinned seed failed: %v", w.name, err)
		}
	}
}

func TestCheckRows(t *testing.T) {
	sp := dsl.Spec{
		Schemes: []string{"no-sleep", "SoI", "SoI+k-switch", "SoI+full-switch"},
		Seeds:   []int64{1},
		Trace:   dsl.TraceSpec{Gateways: 40},
	}
	good := func() []campaign.Row {
		return []campaign.Row{
			{Scheme: "no-sleep", Seed: 1, EnergyKWh: 19.5, UserKWh: 8.6, ISPKWh: 10.9, MeanOnlineGWs: 40},
			{Scheme: "SoI", Seed: 1, EnergyKWh: 14.9, UserKWh: 5.2, ISPKWh: 9.7, Wakeups: 1713, MeanOnlineGWs: 24},
			{Scheme: "SoI+k-switch", Seed: 1, EnergyKWh: 13.6, UserKWh: 5.2, ISPKWh: 8.4, Wakeups: 1713, MeanOnlineGWs: 24},
			{Scheme: "SoI+full-switch", Seed: 1, EnergyKWh: 12.4, UserKWh: 5.2, ISPKWh: 7.2, Wakeups: 1713, MeanOnlineGWs: 24},
		}
	}
	if err := checkRows(sp, good()); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]campaign.Row) []campaign.Row
	}{
		{"missing row", func(r []campaign.Row) []campaign.Row { return r[:3] }},
		{"zero energy", func(r []campaign.Row) []campaign.Row { r[1].EnergyKWh = 0; return r }},
		{"energy not user plus ISP", func(r []campaign.Row) []campaign.Row { r[1].ISPKWh = 1; return r }},
		{"above the baseline", func(r []campaign.Row) []campaign.Row {
			r[1].EnergyKWh, r[1].ISPKWh = 20, 14.8
			return r
		}},
		{"baseline woke", func(r []campaign.Row) []campaign.Row { r[0].Wakeups = 1; return r }},
		{"too many gateways online", func(r []campaign.Row) []campaign.Row { r[1].MeanOnlineGWs = 41; return r }},
		{"availability without failures", func(r []campaign.Row) []campaign.Row { a := 1.0; r[1].Availability = &a; return r }},
		{"switch variant differs gateway-side", func(r []campaign.Row) []campaign.Row { r[2].Wakeups = 1700; return r }},
		{"full switch above k-switch", func(r []campaign.Row) []campaign.Row {
			r[3].ISPKWh, r[3].EnergyKWh = 8.5, 13.7
			return r
		}},
	} {
		if err := checkRows(sp, tc.mutate(good())); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCompare(t *testing.T) {
	rec := func(wall, speed float64) *record {
		m := map[string]float64{"wall_s": wall, "speed": speed}
		return &record{Report: perf.Report{Entries: []perf.Entry{{Name: "w", Scenario: "s", Metrics: m}}}}
	}
	bounds := []metricDef{
		{Name: "wall_s", Better: "lower", Bound: 0.1},
		{Name: "speed", Better: "higher", Bound: 0.1},
	}
	renamed := rec(1, 100)
	renamed.Entries[0].Metrics = map[string]float64{"wall_seconds": 9, "speed": 100}
	newWorkload := rec(9, 100)
	newWorkload.Entries[0].Name = "v"
	reseeded := rec(9, 100)
	reseeded.Entries[0].Scenario = "t"
	for _, tc := range []struct {
		name        string
		ref, fresh  *record
		regs, skips int
	}{
		{"equal", rec(1, 100), rec(1, 100), 0, 0},
		{"within bounds", rec(1, 100), rec(1.09, 91), 0, 0},
		{"better", rec(1, 100), rec(0.5, 200), 0, 0},
		{"lower-is-better regressed", rec(1, 100), rec(1.11, 100), 1, 0},
		{"higher-is-better regressed", rec(1, 100), rec(1, 89), 1, 0},
		{"both regressed", rec(1, 100), rec(2, 50), 2, 0},
		{"renamed metric skipped", rec(1, 100), renamed, 0, 1},
		{"new workload skipped", rec(1, 100), newWorkload, 0, 1},
		{"other seeds skipped", rec(1, 100), reseeded, 0, 1},
	} {
		regs, skipped := compare(tc.ref, tc.fresh, bounds)
		if len(regs) != tc.regs || len(skipped) != tc.skips {
			t.Errorf("%s: regressions %q, skipped %q; want %d and %d", tc.name, regs, skipped, tc.regs, tc.skips)
		}
	}
}

func TestRecordMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	w := workload{name: "w"}
	untraced, traced := &record{}, &record{}
	untraced.add(w, &result{Metrics: map[string]metric{"wall_s": {2, "s"}, "alloc_mb": {3, "MB"}}}, 5, false)
	traced.add(w, &result{Metrics: map[string]metric{"sim.run_s": {1, "s"}}}, 2, true)
	for _, r := range []*record{untraced, traced} {
		if err := r.merge(path); err != nil {
			t.Fatal(err)
		}
	}
	// The file is a perf.Report, which the repository's record tools read.
	got, err := perf.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"wall_s": 2, "alloc_mb": 3, "reps": 5, "sim.run_s": 1, "traced_reps": 2}
	if len(got.Entries) != 1 || !maps.Equal(got.Entries[0].Metrics, want) ||
		got.Entries[0].WallSeconds != 2 || got.Entries[0].AllocBytes != 3e6 {
		t.Errorf("merged entries %+v, want one with both runs' metrics", got.Entries)
	}
	other := &record{Seed: 2}
	other.add(w, &result{Metrics: map[string]metric{"wall_s": {2, "s"}}}, 5, false)
	if err := other.merge(path); err == nil {
		t.Error("a run on other seeds merged into the record")
	}
}

// TestBenchmarkFileMatches checks that the benchmark measures exactly the
// metrics BENCHMARK.json lists, as every run also does.
func TestBenchmarkFileMatches(t *testing.T) {
	bf, err := loadBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e := endToEndValues(workloads[0], []*repResult{{}})
	if err := sameMetrics(bf.EndToEnd, e2e); err != nil {
		t.Error(err)
	}
	layers := layerValues(&repResult{Wall: 1}, []*repResult{{Wall: 1, Layers: layerMetrics(nil, map[string]float64{})}})
	if err := sameMetrics(bf.PerLayer, layers); err != nil {
		t.Error(err)
	}
	e2e["extra"] = 1
	if err := sameMetrics(bf.EndToEnd, e2e); err == nil {
		t.Error("an unlisted metric passed")
	}
	delete(e2e, "extra")
	delete(e2e, "wall_s")
	if err := sameMetrics(bf.EndToEnd, e2e); err == nil {
		t.Error("a missing metric passed")
	}
	for _, d := range bf.EndToEnd {
		if d.Better != "lower" && d.Better != "higher" || !(d.Bound > 0) {
			t.Errorf("%s: direction %q, bound %v", d.Name, d.Better, d.Bound)
		}
	}
}

func TestLayerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		spec dsl.Spec
		want []string // metrics the pass must measure
	}{
		{"full", dsl.Spec{
			Schemes:  []string{"no-sleep", "SoI", "SoI+k-switch", "BH2+k-switch"},
			Seeds:    []int64{3},
			Duration: 3600,
			Trace:    dsl.TraceSpec{Profile: "office", Clients: 272, Gateways: 40},
			Topology: dsl.TopoSpec{Kind: "overlap"},
			Shelf:    dsl.ShelfSpec{Cards: 4, PortsPerCard: 12},
		}, []string{"trace.gen_s", "trace.events", "topology.graph_s", "topology.attach_s", "sim.run_s", "sim.wakeups", "sim.shard_speedup"}},
		{"collapsed and full", dsl.Spec{
			Schemes:  []string{"no-sleep", "SoI", "SoI+full-switch", "BH2+k-switch"},
			Seeds:    []int64{1, 2},
			Duration: 3600,
			Trace:    dsl.TraceSpec{Profile: "residential", Clients: 600, Gateways: 60, Placement: "symmetric"},
			Topology: dsl.TopoSpec{Kind: "grid-city", MeanInRange: 4.5},
			Shelf:    dsl.ShelfSpec{Cards: 4, PortsPerCard: 48},
		}, []string{"quotient.build_s", "quotient.classes", "trace.gen_s", "sim.run_s", "sim.shard_speedup"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := runCampaign(ctx, tc.spec, filepath.Join(t.TempDir(), "out"), nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := checkArtifacts(tc.spec, run.summary, run.results)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(tc.name, 0)
			if err := layerPass(ctx, tc.spec, rows, tr, 0); err != nil {
				t.Fatal(err)
			}
			m := layerMetrics(tr.all(), tr.counts)
			for _, name := range tc.want {
				if !(m[name] > 0) {
					t.Errorf("%s = %v", name, m[name])
				}
			}
			rows[len(rows)-1].Wakeups++
			if err := layerPass(ctx, tc.spec, rows, nil, 0); err == nil {
				t.Error("a row the engine does not reproduce passed")
			}
		})
	}

	// Specs whose cells the pass cannot configure from the spec alone.
	sp := dsl.Spec{Schemes: []string{"SoI"}, Trace: dsl.TraceSpec{Profile: "office", Clients: 272, Gateways: 40}}
	if err := layerPass(ctx, sp, nil, nil, 0); err == nil {
		t.Error("a spec without a dslam shape passed")
	}
	sp.Shelf = dsl.ShelfSpec{Cards: 4, PortsPerCard: 12}
	sp.Failures = &dsl.FailureSpec{Crashes: []dsl.CrashSpec{{At: 60}}}
	if err := layerPass(ctx, sp, nil, nil, 0); err == nil {
		t.Error("a spec with failures passed")
	}
}

func TestDrillSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign server")
	}
	ctx := context.Background()
	w := workload{name: "simd-drill", jobs: 3}
	dir := t.TempDir()
	tr := newTracer(w.name, 0)
	out, jobs, err := drillRep(ctx, w, 1, dir, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || len(out.Errors) != 0 || out.Attempted != 3 {
		t.Fatalf("drill: %d of %d failed: %v", out.Failed, out.Attempted, out.Errors)
	}
	if len(out.Jobs) != 3 || len(out.Digests) != 3 || len(out.Setup) == 0 {
		t.Fatalf("drill reported %d latencies, %d digests, %d set-ups", len(out.Jobs), len(out.Digests), len(out.Setup))
	}
	if err := checkIdentity(ctx, w, 1, jobs, dir, tr, 0); err != nil {
		t.Fatal(err)
	}
	m := layerMetrics(tr.all(), tr.counts)
	for _, name := range []string{
		"runner.busy_frac", "campaign.compile_s", "campaign.first_row_s", "campaign.tail_s", "campaign.job_s",
		"campaign.manifest_kb", "campaign.artifact_kb", "simd.post_ms", "simd.first_row_ms", "simd.job_p95_ms",
		"simd.events_ms", "simd.artifact_ms",
	} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v after a traced drill", name, m[name])
		}
	}
}
