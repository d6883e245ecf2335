package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"insomnia/internal/dsl"
	"insomnia/internal/sim"
)

// officeSchemes is the office day's scheme list: four engine runs per
// seed (no-sleep, the SoI family, the BH2 family, BH2-nobackup).
var officeSchemes = []string{
	"no-sleep", "SoI", "SoI+k-switch", "SoI+full-switch",
	"BH2+k-switch", "BH2+full-switch", "BH2-nobackup+k-switch",
}

// siblingSpec is a unit-test-sized office campaign over the given schemes
// and seeds; symmetric specs run on a grid city so they can collapse. Ten
// hours reach the office morning, where the schemes' results part.
func siblingSpec(schemes []string, seeds []int64, symmetric bool) dsl.Spec {
	sp := dsl.Spec{
		Name: "siblings", Schemes: schemes, Seeds: seeds, Duration: 36000,
		Trace:    dsl.TraceSpec{Profile: "office", Clients: 48, Gateways: 8},
		Topology: dsl.TopoSpec{Kind: "overlap", MeanInRange: 5},
		Outputs:  []string{"summary", "json", "power"},
	}
	if symmetric {
		sp.Trace = dsl.TraceSpec{Profile: "residential", Clients: 72, Gateways: 36, Placement: "symmetric"}
		sp.Topology = dsl.TopoSpec{Kind: "grid-city", MeanInRange: 4}
	}
	return sp
}

func compileSpec(t *testing.T, sp dsl.Spec) *Plan {
	t.Helper()
	p, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runAlone is an exec hook that ignores sibling grouping: it simulates
// every scheme of the job in a run of its own.
func runAlone(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	sibs := cfg.Siblings
	cfg.Siblings = nil
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, sc := range sibs {
		cfg.Scheme = sc
		r, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res.Siblings = append(res.Siblings, r)
	}
	return res, nil
}

// TestSiblingRunCounts pins how cells group into engine runs: consecutive
// cells sharing a fixture, a collapse decision and a gateway side.
func TestSiblingRunCounts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		spec     dsl.Spec
		collapse string
		runs     int
	}{
		{"office day, one seed", siblingSpec(officeSchemes, []int64{1}, false), "", 4},
		{"office day, two seeds", siblingSpec(officeSchemes, []int64{1, 2}, false), "", 8},
		{"only consecutive cells group", siblingSpec([]string{"SoI", "no-sleep", "SoI+k-switch"}, []int64{1}, false), "", 3},
		{"collapsed family", siblingSpec([]string{"no-sleep", "SoI", "SoI+full-switch"}, []int64{1}, true), "auto", 2},
		{"full family", siblingSpec([]string{"no-sleep", "SoI", "SoI+full-switch"}, []int64{1}, true), "off", 2},
		{"collapse splits the family", siblingSpec([]string{"SoI", "SoI+k-switch", "SoI+full-switch"}, []int64{1}, true), "auto", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := compileSpec(t, tc.spec)
			r, err := runPlan(p, Options{Workers: 2, OutDir: t.TempDir(), Collapse: tc.collapse})
			if err != nil {
				t.Fatal(err)
			}
			if r.Ran != len(p.Cells) || r.Runs != tc.runs {
				t.Errorf("simulated %d cells in %d engine runs, want %d in %d", r.Ran, r.Runs, len(p.Cells), tc.runs)
			}
		})
	}
}

// drainRun submits the plan, collecting its RowEvents, and waits.
func drainRun(t *testing.T, p *Plan, opts Options) (*RunResult, []RowEvent) {
	t.Helper()
	job, err := p.Submit(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var evs []RowEvent
	for ev := range job.Rows() {
		evs = append(evs, ev)
	}
	r, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return r, evs
}

// TestSiblingGroupsMatchSeparateRuns: sibling grouping is invisible in the
// output. Artifacts, rows and the RowEvent stream equal those of a run
// whose exec hook simulates every scheme alone.
func TestSiblingGroupsMatchSeparateRuns(t *testing.T) {
	sp := siblingSpec(officeSchemes, []int64{1, 2}, false)
	grouped, alone := t.TempDir(), t.TempDir()
	rg, evg := drainRun(t, compileSpec(t, sp), Options{Workers: 2, OutDir: grouped})
	ra, eva := drainRun(t, compileSpec(t, sp), Options{Workers: 2, OutDir: alone, exec: runAlone})
	fg, fa := readArtifacts(t, grouped), readArtifacts(t, alone)
	if len(fg) != 3 {
		t.Fatalf("got %d artifacts, want 3", len(fg))
	}
	for name := range fg {
		if fg[name] != fa[name] {
			t.Errorf("%s differs between grouped and separate runs", name)
		}
	}
	if !reflect.DeepEqual(rg.Rows, ra.Rows) {
		t.Error("rows differ between grouped and separate runs")
	}
	if !reflect.DeepEqual(evg, eva) {
		t.Error("RowEvent streams differ between grouped and separate runs")
	}
	for i, ev := range evg {
		if ev.Index != i {
			t.Fatalf("event %d is cell %d: events left cell order", i, ev.Index)
		}
	}
}

// TestSiblingGroupResume cuts the manifest right after the first
// cell of a sibling group, as a crash between two checkpoints of one
// engine run would: the resume simulates the rest of the group as a
// smaller group and writes byte-identical artifacts.
func TestSiblingGroupResume(t *testing.T) {
	sp := siblingSpec(officeSchemes, []int64{1}, false)
	full := t.TempDir()
	if _, err := runPlan(compileSpec(t, sp), Options{Workers: 2, OutDir: full}); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(full, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(manifest), "\n")
	// Header, no-sleep, then SoI: the first cell of the SoI family.
	if !strings.Contains(lines[2], `"base|SoI|1"`) {
		t.Fatalf("manifest line 2 is %q, want the SoI cell", lines[2])
	}
	cut := t.TempDir()
	if err := os.WriteFile(filepath.Join(cut, ManifestName), []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := runPlan(compileSpec(t, sp), Options{Workers: 2, OutDir: cut, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// Left: {SoI+k-switch, SoI+full-switch}, the BH2 pair, BH2-nobackup.
	if r.Skipped != 2 || r.Ran != 5 || r.Runs != 3 {
		t.Errorf("resume skipped %d, simulated %d cells in %d runs; want 2, 5 in 3", r.Skipped, r.Ran, r.Runs)
	}
	fa, fb := readArtifacts(t, full), readArtifacts(t, cut)
	for name := range fa {
		if fa[name] != fb[name] {
			t.Errorf("%s differs between uninterrupted and resumed runs", name)
		}
	}
}

// TestSiblingGroupFailure: when the engine run of a sibling group
// fails, every cell of the group is recorded as failed, and the group
// retries as a whole (the retry counts as a run of its own).
func TestSiblingGroupFailure(t *testing.T) {
	poison := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Scheme == sim.SoI {
			panic("SoI family is poisoned")
		}
		return sim.RunContext(ctx, cfg)
	}
	r, err := runPlan(compileSpec(t, siblingSpec(officeSchemes, []int64{1}, false)),
		Options{Workers: 2, OutDir: t.TempDir(), exec: poison})
	if !errors.Is(err, ErrCellsFailed) {
		t.Fatalf("poisoned group must report ErrCellsFailed, got %v", err)
	}
	want := []string{"base|SoI|1", "base|SoI+k-switch|1", "base|SoI+full-switch|1"}
	if !reflect.DeepEqual(r.Failed, want) {
		t.Errorf("failed cells %v, want %v", r.Failed, want)
	}
	if len(r.Rows) != 4 || r.Runs != 5 {
		t.Errorf("%d rows in %d runs, want 4 rows in 4 runs plus one retry", len(r.Rows), r.Runs)
	}
}
