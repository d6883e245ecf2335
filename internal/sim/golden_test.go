package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"insomnia/internal/bh2"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// The golden-metrics test pins the simulator's observable output bit-for-bit.
// Performance refactors of the engine (event heap, lazy sampling, completion
// caching) must leave every per-scheme metric byte-identical; this test is
// the contract. Regenerate testdata/golden.json with
//
//	go test ./internal/sim -run TestGoldenMetrics -update-golden
//
// only when an intentional behavior change lands, and say so in the commit.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

func hashF64(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashSeries(h hash.Hash, ts *stats.TimeSeries) {
	hashInt(h, int64(ts.Bins()))
	for i := 0; i < ts.Bins(); i++ {
		hashF64(h, ts.MeanAt(i))
	}
}

// fingerprint reduces every metric a Result carries to one digest. Any bit
// of drift in energy accounting, sampled series, per-flow QoS or decision
// counters changes the digest.
func fingerprint(res *Result) string {
	h := sha256.New()
	hashInt(h, int64(res.Scheme))
	hashF64(h, res.Duration)
	hashF64(h, res.Energy.UserJ)
	hashF64(h, res.Energy.ISPJ)
	hashInt(h, int64(res.Wakeups))
	hashInt(h, int64(res.Moves))
	hashInt(h, int64(res.Resolves))
	hashInt(h, int64(res.OptGap))
	for _, v := range res.FCT {
		hashF64(h, v)
	}
	for _, v := range res.FlowStall {
		hashF64(h, v)
	}
	for _, v := range res.GatewayOnTime {
		hashF64(h, v)
	}
	hashSeries(h, res.PowerW)
	hashSeries(h, res.UserPowerW)
	hashSeries(h, res.ISPPowerW)
	hashSeries(h, res.OnlineGWs)
	hashSeries(h, res.OnlineCards)
	reasons := make([]int, 0, len(res.DecisionReasons))
	for r := range res.DecisionReasons {
		reasons = append(reasons, int(r))
	}
	sort.Ints(reasons)
	for _, r := range reasons {
		hashInt(h, int64(r))
		hashInt(h, int64(res.DecisionReasons[bh2.Reason(r)]))
	}
	// Robustness block, present only for failure-injection runs so every
	// failure-free fingerprint predating it is unchanged.
	if res.GatewayDownTime != nil {
		hashInt(h, int64(res.Failures))
		hashInt(h, int64(res.FlowsAborted))
		hashF64(h, res.StrandedSeconds)
		hashInt(h, int64(res.Reconnects))
		hashF64(h, res.MeanRecoveryS)
		hashF64(h, res.Availability)
		for _, v := range res.GatewayDownTime {
			hashF64(h, v)
		}
		hashSeries(h, res.StrandedClients)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenCases(t *testing.T) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	tr9, tp9 := smallScenario(t, 9)
	for _, sc := range []Scheme{
		NoSleep, SoI, SoIKSwitch, SoIFullSwitch,
		BH2KSwitch, BH2FullSwitch, BH2NoBackup, Optimal, Centralized,
	} {
		out["seed9/"+sc.String()] = run(t, tr9, tp9, sc, 9)
	}
	// Random wake delays exercise the wake-RNG path.
	rw, err := Run(Config{Trace: tr9, Topo: tp9, Scheme: SoI, Seed: 9, K: 2, RandomWake: true})
	if err != nil {
		t.Fatal(err)
	}
	out["seed9/SoI-randomwake"] = rw
	// A second trace seed to vary traffic structure.
	tr21, tp21 := smallScenario(t, 21)
	for _, sc := range []Scheme{SoI, BH2KSwitch, Optimal} {
		out["seed21/"+sc.String()] = run(t, tr21, tp21, sc, 21)
	}
	// Failure injection: a mid-run crash plus an area outage, pinned for the
	// schemes whose reactions differ (SoI blind, BH2 terminal-side,
	// Centralized controller-side re-solve).
	fp := testFailurePlan()
	for _, sc := range []Scheme{SoI, BH2KSwitch, Centralized} {
		res, err := Run(Config{Trace: tr9, Topo: tp9, Scheme: sc, Seed: 9, K: 2, Failures: fp})
		if err != nil {
			t.Fatal(err)
		}
		out["seed9/"+sc.String()+"/failures"] = res
	}
	// Full-day §5 scenario (the one figures.DaySpec declares; its
	// TestDaySpec pins the two constructions together): the acceptance
	// bar for engine refactors is byte-identical day-run metrics.
	if !testing.Short() {
		tr, err := trace.Generate(trace.DefaultSimConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		g, err := topology.OverlapGraph(tr.Cfg.APs, topology.DefaultMeanInRange, 2)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := topology.FromOverlap(g, tr.ClientAP)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scheme{NoSleep, SoI, BH2KSwitch} {
			res, err := Run(Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			out["day/"+sc.String()] = res
		}
	}
	return out
}

func TestGoldenMetrics(t *testing.T) {
	results := goldenCases(t)
	got := make(map[string]string, len(results))
	for name, res := range results {
		got[name] = fingerprint(res)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden entry (regenerate with -update-golden)", name)
		} else if g != w {
			t.Errorf("%s: metrics drifted: %s != golden %s", name, g, w)
		}
	}
}
