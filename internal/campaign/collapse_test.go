package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"insomnia/internal/dsl"
	"insomnia/internal/sim"
)

// The collapse pass's contract is that it is invisible in the artifacts:
// `collapse: auto` and `collapse: off` write byte-identical summary.csv,
// results.json and power.csv — at every worker and engine-shard count —
// and differ only in how much work they did. These tests pin that.

// runModes executes one spec under both collapse modes at the given
// worker/shard setting and returns the artifact bytes of each, keyed by
// file name, plus the auto run's full result.
func runModes(t *testing.T, spec dsl.Spec, workers, shards int) (auto, off map[string]string, autoRes *RunResult) {
	t.Helper()
	read := func(dir string, arts []string) map[string]string {
		out := map[string]string{}
		for _, a := range arts {
			b, err := os.ReadFile(a)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(a)] = string(b)
		}
		return out
	}
	dirA := t.TempDir()
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := runPlan(p, Options{Workers: workers, Shards: shards, OutDir: dirA, Collapse: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	p2, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := runPlan(p2, Options{Workers: workers, Shards: shards, OutDir: dirB, Collapse: "off"})
	if err != nil {
		t.Fatal(err)
	}
	return read(dirA, resA.Artifacts), read(dirB, resB.Artifacts), resA
}

// TestCollapseByteIdentical is the property test: randomized small
// symmetric grid-city specs — sizes, density, profile, scheme mix — must
// produce byte-identical artifacts under collapse auto and off, across
// worker and shard counts. The scheme mix always includes a coupled
// scheme, so each fixture exercises the mixed full+quotient path too.
func TestCollapseByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	profiles := []string{"residential", "flash-crowd", "churn"}
	for trial := 0; trial < 4; trial++ {
		gws := []int{9, 16, 25, 36}[trial]
		clients := gws * (2 + rng.Intn(3))
		spec := dsl.Spec{
			Name:     fmt.Sprintf("collapse-prop-%d", trial),
			Schemes:  []string{"no-sleep", "SoI", "SoI+full-switch", "BH2+k-switch"},
			Seeds:    []int64{int64(1 + trial)},
			Duration: 7200,
			Trace: dsl.TraceSpec{
				Profile: profiles[rng.Intn(len(profiles))],
				Clients: clients, Gateways: gws,
				Placement: "symmetric",
			},
			Topology: dsl.TopoSpec{Kind: "grid-city", MeanInRange: 4},
			Outputs:  []string{"summary", "json", "power"},
		}
		workers, shards := []int{1, 4}[rng.Intn(2)], []int{0, 2}[rng.Intn(2)]
		t.Run(fmt.Sprintf("gw%d-cl%d-%s-w%d-s%d", gws, clients, spec.Trace.Profile, workers, shards), func(t *testing.T) {
			auto, off, res := runModes(t, spec, workers, shards)
			rows := res.Rows
			if len(auto) != 3 || len(off) != 3 {
				t.Fatalf("expected 3 artifacts, got %d and %d", len(auto), len(off))
			}
			for name, a := range auto {
				if off[name] != a {
					t.Errorf("%s differs between collapse auto and off", name)
				}
			}
			if len(res.Collapsed) == 0 {
				t.Fatal("auto run never collapsed")
			}
			for _, n := range res.Collapsed {
				if n.FullGateways != gws || n.Classes <= 0 || n.Classes >= gws {
					t.Errorf("collapse note %+v did not shrink %d gateways", n, gws)
				}
			}
			for _, r := range rows {
				collapsible := r.Scheme == "no-sleep" || r.Scheme == "SoI" || r.Scheme == "SoI+full-switch"
				if collapsible && r.CollapsedClasses == 0 {
					t.Errorf("%s/%s: collapsible cell reports no classes", r.Scenario, r.Scheme)
				}
				if !collapsible && r.CollapsedClasses != 0 {
					t.Errorf("%s/%s: coupled cell reports %d classes", r.Scenario, r.Scheme, r.CollapsedClasses)
				}
				if collapsible && r.CollapsedClasses >= spec.Trace.Gateways {
					t.Errorf("%s/%s: %d classes did not shrink %d gateways", r.Scenario, r.Scheme, r.CollapsedClasses, spec.Trace.Gateways)
				}
			}
		})
	}
}

// TestCollapseFailureCampaign: a failures block forces the affected
// gateways into singleton classes but the rest still collapse, and the
// robustness metrics stay byte-identical to the full simulation.
func TestCollapseFailureCampaign(t *testing.T) {
	spec := dsl.Spec{
		Name:     "collapse-failures",
		Schemes:  []string{"no-sleep", "SoI"},
		Seeds:    []int64{3},
		Duration: 7200,
		Trace: dsl.TraceSpec{
			Profile: "residential", Clients: 100, Gateways: 25,
			Placement: "symmetric",
		},
		Topology: dsl.TopoSpec{Kind: "grid-city", MeanInRange: 4},
		Failures: &dsl.FailureSpec{
			Crashes: []dsl.CrashSpec{{At: 3000, Count: 2}},
			Outages: []dsl.OutageSpec{{Start: 4500, Duration: 900, Frac: 0.2}},
		},
		Outputs: []string{"summary", "json"},
	}
	auto, off, res := runModes(t, spec, 2, 0)
	rows := res.Rows
	for name, a := range auto {
		if off[name] != a {
			t.Errorf("%s differs between collapse auto and off under failures", name)
		}
	}
	if len(res.Collapsed) == 0 {
		t.Fatal("failure campaign never collapsed")
	}
	for _, r := range rows {
		if r.Availability == nil {
			t.Errorf("%s/%s: failure campaign row lost its availability", r.Scenario, r.Scheme)
		}
	}
}

// TestCollapseIneligibleSpecs: shuffled placement and binomial topologies
// must never collapse — and must not even report classes.
func TestCollapseIneligibleSpecs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		placement string
		topo      string
	}{
		{"shuffled-placement", "", "grid-city"},
		{"binomial-topology", "symmetric", "binomial"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := dsl.Spec{
				Name: "collapse-" + tc.name, Schemes: []string{"SoI"},
				Seeds: []int64{1}, Duration: 3600,
				Trace:    dsl.TraceSpec{Profile: "residential", Clients: 32, Gateways: 16, Placement: tc.placement},
				Topology: dsl.TopoSpec{Kind: tc.topo, MeanInRange: 4},
			}
			p, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runPlan(p, Options{Workers: 1, OutDir: t.TempDir(), Collapse: "auto"})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				if r.CollapsedClasses != 0 {
					t.Errorf("%s: ineligible spec reported %d classes", tc.name, r.CollapsedClasses)
				}
			}
		})
	}
}

// TestCollapseRejectsUnknownMode: a misspelt Options.Collapse fails both
// entry points before any work, instead of silently running every cell
// full as "off" does; Submit creates no output directory.
func TestCollapseRejectsUnknownMode(t *testing.T) {
	p := compileTestPlan(t)
	out := filepath.Join(t.TempDir(), "out")
	if _, err := p.Submit(context.Background(), Options{OutDir: out, Collapse: "of"}); err == nil {
		t.Error(`Submit accepted Collapse "of"`)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("rejected Submit left %s behind (stat: %v)", out, err)
	}
	ran := false
	err := p.Simulate(context.Background(), Options{Collapse: "of"}, func(Cell, *sim.Result) error {
		ran = true
		return nil
	})
	if err == nil || ran {
		t.Errorf(`Simulate with Collapse "of": err %v, ran a cell: %v`, err, ran)
	}
}
