package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"insomnia/internal/dsl"
	"insomnia/internal/sim"
)

// TestSchemeNamesMatchSim pins dsl.SchemeNames (what specs may say) to
// sim.Scheme (what the engine runs): every name resolves, resolves to a
// scheme that spells itself that way, and every engine scheme is
// reachable from a spec.
func TestSchemeNamesMatchSim(t *testing.T) {
	seen := map[sim.Scheme]bool{}
	for _, name := range dsl.SchemeNames {
		sc, err := SchemeByName(name)
		if err != nil {
			t.Errorf("dsl.SchemeNames lists %q but campaign cannot resolve it: %v", name, err)
			continue
		}
		if sc.String() != name {
			t.Errorf("%q resolves to %v which spells itself %q", name, sc, sc.String())
		}
		seen[sc] = true
	}
	for sc := sim.NoSleep; sc <= sim.Centralized; sc++ {
		if !seen[sc] {
			t.Errorf("engine scheme %v is not reachable from dsl.SchemeNames", sc)
		}
	}
	if _, err := SchemeByName("BH3"); err == nil {
		t.Error("unknown scheme must not resolve")
	}
}

// testSpec is a campaign small enough for unit tests: two schemes, two
// seeds, one swept axis -> 8 cells of a 1-hour office scenario.
const testSpec = `
name: unit
schemes: [no-sleep, SoI]
seeds: [1, 2]
duration: 3600
trace:
  profile: office
  clients: 48
  gateways: 8
topology:
  kind: overlap
  mean_in_range: 5
sweeps:
  - axis: k
    values: [2, 4]
outputs: [summary, json, power]
`

// runPlan submits the plan and waits: the synchronous shape most tests
// want over the Job API.
func runPlan(p *Plan, opts Options) (*RunResult, error) {
	job, err := p.Submit(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	return job.Wait()
}

func compileTestPlan(t *testing.T) *Plan {
	t.Helper()
	spec, err := dsl.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileEnumeration(t *testing.T) {
	p := compileTestPlan(t)
	if len(p.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(p.Cells))
	}
	// Variants outermost, then seeds, then schemes.
	want := []string{
		"k=2|no-sleep|1", "k=2|SoI|1", "k=2|no-sleep|2", "k=2|SoI|2",
		"k=4|no-sleep|1", "k=4|SoI|1", "k=4|no-sleep|2", "k=4|SoI|2",
	}
	for i, c := range p.Cells {
		if c.Key() != want[i] {
			t.Errorf("cell %d key %q, want %q", i, c.Key(), want[i])
		}
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
	}
	// Sweep overrides land in the variant specs.
	if p.variants[0].spec.K != 2 || p.variants[1].spec.K != 4 {
		t.Errorf("sweep values not applied: %+v", p.variants)
	}
}

func TestCompileRejectsInvalidVariant(t *testing.T) {
	spec, err := dsl.ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: office
  clients: 48
  gateways: 8
sweeps:
  - axis: gateways
    values: [8, 96]
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(spec); err == nil || !strings.Contains(err.Error(), "gateways=96") {
		t.Errorf("sweeping gateways past clients must fail with the variant named, got %v", err)
	}
}

func readArtifacts(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range []string{"summary.csv", "results.json", "power.csv"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(buf)
	}
	return out
}

// TestArtifactsDeterministicAcrossWorkers runs the same campaign serially
// and with 4 workers; every artifact must be byte-identical.
func TestArtifactsDeterministicAcrossWorkers(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ra, err := runPlan(compileTestPlan(t), Options{Workers: 1, OutDir: a})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runPlan(compileTestPlan(t), Options{Workers: 4, OutDir: b})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Ran != 8 || rb.Ran != 8 || ra.Skipped != 0 {
		t.Fatalf("unexpected run counts: %+v vs %+v", ra, rb)
	}
	fa, fb := readArtifacts(t, a), readArtifacts(t, b)
	for name := range fa {
		if fa[name] != fb[name] {
			t.Errorf("%s differs between 1 and 4 workers", name)
		}
	}
	// The summary actually contains savings against the no-sleep baseline.
	if !strings.Contains(fa["summary.csv"], "savings_pct") {
		t.Error("summary.csv missing savings column")
	}
	for _, row := range strings.Split(strings.TrimSpace(fa["summary.csv"]), "\n")[1:] {
		if strings.Count(row, ",") < 12-1 {
			t.Errorf("short summary row: %q", row)
		}
	}
}

// TestArtifactsDeterministicAcrossShards runs the same campaign with the
// serial engine and with every simulation sharded; the sharded engine is
// byte-identical per run, so every artifact must match.
func TestArtifactsDeterministicAcrossShards(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	if _, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(compileTestPlan(t), Options{Workers: 2, Shards: 3, OutDir: b}); err != nil {
		t.Fatal(err)
	}
	fa, fb := readArtifacts(t, a), readArtifacts(t, b)
	for name := range fa {
		if fa[name] != fb[name] {
			t.Errorf("%s differs between serial and sharded engines", name)
		}
	}
}

func TestEngineShards(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		override, spec, workers, cells, want int
	}{
		{5, 2, 0, 100, 5},                         // CLI override wins
		{0, 2, 0, 100, 2},                         // then the spec's shards key
		{0, 0, maxprocs, 100, 1},                  // auto: saturated pool -> serial sims
		{0, 0, 1, 100, max(1, maxprocs)},          // auto: serial pool -> shard over all cores
		{0, 0, maxprocs * 2, 1, max(1, maxprocs)}, // auto: one cell -> all cores
	}
	for _, tc := range cases {
		if got := engineShards(tc.override, tc.spec, tc.workers, tc.cells); got != tc.want {
			t.Errorf("engineShards(%d, %d, %d, %d) = %d, want %d",
				tc.override, tc.spec, tc.workers, tc.cells, got, tc.want)
		}
	}
}

// TestResumeMatchesUninterrupted simulates an interruption by truncating
// a finished campaign's manifest to a prefix, then resuming in a second
// directory: the resumed campaign must rebuild byte-identical artifacts
// and only simulate the missing cells.
func TestResumeMatchesUninterrupted(t *testing.T) {
	full := t.TempDir()
	rFull, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: full})
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(full, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(manifest), "\n")
	if len(lines) < 9 {
		t.Fatalf("manifest has %d lines, want header + 8 cells", len(lines))
	}

	// Interrupt after 3 completed cells, mid-write of the 4th: the torn
	// final line must be tolerated and its cell re-run.
	interrupted := t.TempDir()
	torn := strings.Join(lines[:4], "") + lines[4][:len(lines[4])/2]
	if err := os.WriteFile(filepath.Join(interrupted, ManifestName), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	rRes, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: interrupted, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rRes.Skipped != 3 || rRes.Ran != 5 {
		t.Errorf("resume skipped %d ran %d, want 3/5", rRes.Skipped, rRes.Ran)
	}
	fa, fb := readArtifacts(t, full), readArtifacts(t, interrupted)
	for name := range fa {
		if fa[name] != fb[name] {
			t.Errorf("%s differs between uninterrupted and resumed runs", name)
		}
	}
	if len(rFull.Rows) != len(rRes.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(rFull.Rows), len(rRes.Rows))
	}
	for i := range rFull.Rows {
		if !rowsEqual(rFull.Rows[i], rRes.Rows[i]) {
			t.Errorf("row %d differs after resume", i)
		}
	}
}

func rowsEqual(a, b Row) bool { return reflect.DeepEqual(a, b) }

func TestRunRefusesForeignManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	// Same directory, same spec, no -resume: refuse to clobber.
	if _, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: dir}); err == nil || !errors.Is(err, ErrManifestConflict) || !strings.Contains(err.Error(), "-resume") {
		t.Errorf("rerun without resume should refuse with ErrManifestConflict, got %v", err)
	}
	// Changed spec, -resume: refuse the mismatched checkpoint.
	spec, err := dsl.ParseSpec([]byte(strings.Replace(testSpec, "seeds: [1, 2]", "seeds: [1, 3]", 1)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(p2, Options{Workers: 2, OutDir: dir, Resume: true}); err == nil || !errors.Is(err, ErrManifestConflict) || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("resume with changed spec should refuse with ErrManifestConflict, got %v", err)
	}
}

// failureSpec is testSpec without the sweep plus a failures block: one
// crash and one outage over the 1-hour office scenario.
const failureSpec = `
name: unit-failures
schemes: [no-sleep, SoI, BH2+k-switch]
seeds: [1, 2]
duration: 3600
k: 2
trace:
  profile: office
  clients: 48
  gateways: 8
topology:
  kind: overlap
  mean_in_range: 5
failures:
  reboot_mean: 120
  crashes:
    - at: 600
      count: 2
  outages:
    - start: 1800
      duration: 300
      frac: 0.5
outputs: [summary, json]
`

func compileFailurePlan(t *testing.T) *Plan {
	t.Helper()
	spec, err := dsl.ParseSpec([]byte(failureSpec))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFailurePlanExpansion pins the seed-derived placement: the drawn
// gateways depend on the seed only, stay in range, and the same seed
// always draws the same schedule (so every scheme of a row shares it).
func TestFailurePlanExpansion(t *testing.T) {
	p := compileFailurePlan(t)
	v := p.variants[0].spec
	a, b := failurePlan(v, 1), failurePlan(v, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("failure plan must be deterministic per seed")
	}
	if len(a.Crashes) != 2 {
		t.Fatalf("count: 2 must expand to 2 crashes, got %d", len(a.Crashes))
	}
	if a.Crashes[0].Gateway == a.Crashes[1].Gateway {
		t.Error("one crash spec must hit distinct gateways")
	}
	if len(a.Outages) != 1 {
		t.Fatalf("got %d outages", len(a.Outages))
	}
	gws := a.Outages[0].Gateways
	if len(gws) != 4 || gws[0] < 0 || gws[3] != gws[0]+3 || gws[3] >= 8 {
		t.Errorf("frac 0.5 of 8 gateways must cover a 4-wide in-range block, got %v", gws)
	}
	if a.RebootMeanSec != 120 || a.RebootSigma != 0.5 {
		t.Errorf("reboot distribution not forwarded: %+v", a)
	}
	other := failurePlan(v, 2)
	if reflect.DeepEqual(a.Crashes, other.Crashes) && reflect.DeepEqual(a.Outages, other.Outages) {
		t.Error("different seeds should explore different placements")
	}
}

// TestFailureCampaignDeterministic runs the failure campaign serially and
// with 4 workers; artifacts must be byte-identical and carry the
// robustness columns.
func TestFailureCampaignDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	if _, err := runPlan(compileFailurePlan(t), Options{Workers: 1, OutDir: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(compileFailurePlan(t), Options{Workers: 4, Shards: 2, OutDir: b}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"summary.csv", "results.json"} {
		fa, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(fa) != string(fb) {
			t.Errorf("%s differs between 1 worker/serial and 4 workers/2 shards", name)
		}
	}
	sum, err := os.ReadFile(filepath.Join(a, "summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sum), "availability") {
		t.Error("summary.csv missing robustness columns")
	}
	// Every data row of a failure campaign carries a non-blank availability
	// (second-to-last column; collapsed_classes is last).
	for _, row := range strings.Split(strings.TrimSpace(string(sum)), "\n")[1:] {
		cols := strings.Split(row, ",")
		if cols[len(cols)-2] == "" {
			t.Errorf("failure-campaign row missing availability: %q", row)
		}
	}
}

// TestCampaignPanicRecovery injects a panic into one scheme's first
// execution: the cell must be recorded as failed in the manifest, retried
// once (succeeding), and the artifacts must match an uninjected run.
func TestCampaignPanicRecovery(t *testing.T) {
	var mu sync.Mutex
	panicked := 0
	exec := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		mu.Lock()
		first := cfg.Scheme == sim.SoI && panicked == 0
		if first {
			panicked++
		}
		mu.Unlock()
		if first {
			panic("injected cell failure")
		}
		return sim.Run(cfg)
	}
	dir, clean := t.TempDir(), t.TempDir()
	r, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: dir, exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failed) != 0 {
		t.Fatalf("retry should have recovered the panicked cell, failed: %v", r.Failed)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(r.Rows))
	}
	manifest, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), "injected cell failure") {
		t.Error("manifest does not record the panic")
	}
	if _, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: clean}); err != nil {
		t.Fatal(err)
	}
	fa, fb := readArtifacts(t, dir), readArtifacts(t, clean)
	for name := range fa {
		if fa[name] != fb[name] {
			t.Errorf("%s differs between panicked-and-retried and clean runs", name)
		}
	}
}

// TestCampaignPersistentFailure poisons one scheme permanently: the cells
// fail twice, surface in RunResult.Failed and results.json, the other
// cells still produce rows — and a resume with the poison lifted heals
// the campaign to a byte-identical artifact set.
func TestCampaignPersistentFailure(t *testing.T) {
	poison := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Scheme == sim.SoI {
			panic("SoI is poisoned")
		}
		return sim.Run(cfg)
	}
	dir := t.TempDir()
	r, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: dir, exec: poison})
	if !errors.Is(err, ErrCellsFailed) {
		t.Fatalf("poisoned campaign must report ErrCellsFailed, got %v", err)
	}
	if r == nil {
		t.Fatal("ErrCellsFailed must still carry the partial result")
	}
	if len(r.Failed) != 4 { // SoI x 2 seeds x 2 sweep values
		t.Fatalf("failed cells: %v, want the 4 SoI cells", r.Failed)
	}
	for _, key := range r.Failed {
		if !strings.Contains(key, "SoI") {
			t.Errorf("unexpected failed cell %s", key)
		}
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d successful rows, want 4", len(r.Rows))
	}
	results, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(results), `"failed"`) {
		t.Error("results.json does not surface the failed cells")
	}
	// Resume without the poison: only the failed cells re-run, and the
	// artifacts now match a never-poisoned campaign.
	r2, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Skipped != 4 || r2.Ran != 4 || len(r2.Failed) != 0 {
		t.Fatalf("resume skipped %d ran %d failed %v, want 4/4/none", r2.Skipped, r2.Ran, r2.Failed)
	}
	clean := t.TempDir()
	if _, err := runPlan(compileTestPlan(t), Options{Workers: 2, OutDir: clean}); err != nil {
		t.Fatal(err)
	}
	fa, fb := readArtifacts(t, dir), readArtifacts(t, clean)
	for name := range fa {
		if fa[name] != fb[name] {
			t.Errorf("%s differs between healed and clean runs", name)
		}
	}
}

// TestProfileFamilies compiles and builds one fixture per profile family,
// covering traceConfig and every topology kind.
func TestProfileFamilies(t *testing.T) {
	for _, tc := range []struct{ profile, topo string }{
		{"office", "overlap"},
		{"residential", "grid-city"},
		{"flash-crowd", "grid-city"},
		{"diurnal-mix", "binomial"},
		{"churn", "overlap"},
	} {
		spec, err := dsl.Spec{
			Schemes:  []string{"SoI"},
			Duration: 1800,
			Trace:    dsl.TraceSpec{Profile: tc.profile, Clients: 30, Gateways: 10},
			Topology: dsl.TopoSpec{Kind: tc.topo, MeanInRange: 4},
		}.WithDefaults()
		if err != nil {
			t.Fatalf("%s: %v", tc.profile, err)
		}
		p, err := Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.profile, err)
		}
		f, err := buildFixture(p.variants[0].spec, 5, true, false)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.profile, tc.topo, err)
		}
		if f.tp.NumGateways != 10 || f.tr.Cfg.Clients != 30 {
			t.Errorf("%s: fixture shape wrong", tc.profile)
		}
		if f.tr.Cfg.Duration != 1800 {
			t.Errorf("%s: duration not applied", tc.profile)
		}
	}
}

// TestShelfAutoSizing covers the DSLAM auto-shape: the paper's shelf for
// small scenarios, whole 48-port k-groups for metros, explicit wins.
func TestShelfAutoSizing(t *testing.T) {
	small := dsl.Spec{Trace: dsl.TraceSpec{Gateways: 40}, K: 4}
	if s := shelf(small); s != dsl.EvalDSLAM {
		t.Errorf("small scenario should use the eval shelf, got %+v", s)
	}
	metro := dsl.Spec{Trace: dsl.TraceSpec{Gateways: 1000}, K: 4}
	s := shelf(metro)
	if s.PortsPerCard != 48 || s.Cards%4 != 0 || s.Ports() < 1000 {
		t.Errorf("metro shelf wrong: %+v", s)
	}
	explicit := dsl.Spec{Shelf: dsl.ShelfSpec{Cards: 3, PortsPerCard: 20}, Trace: dsl.TraceSpec{Gateways: 40}}
	if s := shelf(explicit); s.Cards != 3 || s.PortsPerCard != 20 {
		t.Errorf("explicit shelf ignored: %+v", s)
	}
}
