package oracle

import (
	"fmt"
	"strings"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
)

// harness.go drives the cross-check: build a scenario from a (tiny) DSL
// spec, run the engine at several shard counts, compare each run against
// the reference, and shrink failing specs by halving.

// DefaultShards are the engine shard counts every check triangulates:
// serial, and the two smallest sharded layouts (which exercise the epoch
// fences, deferred sinks, and merge order).
var DefaultShards = []int{1, 2, 3}

// BuildConfig materializes a spec into the explicit sim.Config the
// harness uses for both the engine and the reference: every default the
// engine would fill (shelf shape, k, idle timeout) is pinned here so the
// two sides cannot diverge on defaults.
func BuildConfig(sp dsl.Spec, seed int64, sc sim.Scheme) (sim.Config, error) {
	tr, tp, err := campaign.BuildScenario(sp, seed)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Trace: tr, Topo: tp,
		DSLAM: dsl.EvalDSLAM, K: 4,
		Scheme: sc, Seed: seed,
		IdleTimeout: dsl.IdleTimeoutSeconds,
	}
	if tp.NumGateways > cfg.DSLAM.Ports() {
		return sim.Config{}, fmt.Errorf("oracle: spec has %d gateways, shelf has %d ports", tp.NumGateways, cfg.DSLAM.Ports())
	}
	return cfg, nil
}

// CheckConfig runs cfg through the engine at each shard count and
// compares every run against the reference. It returns one message per
// disagreement (empty means the oracle holds) and an error only when a
// run could not execute at all.
func CheckConfig(cfg sim.Config, shards []int) ([]string, error) {
	if len(shards) == 0 {
		shards = DefaultShards
	}
	exp, err := Reference(cfg)
	if err != nil {
		return nil, err
	}
	return checkAgainst(exp, cfg, shards)
}

func checkAgainst(exp *Expected, cfg sim.Config, shards []int) ([]string, error) {
	var out []string
	for _, n := range shards {
		c := cfg
		c.Shards = n
		res, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("oracle: engine run at %d shards: %w", n, err)
		}
		for _, d := range Diff(exp, res) {
			out = append(out, fmt.Sprintf("shards=%d: %s", n, d))
		}
	}
	return out, nil
}

// Mismatch describes one oracle failure: the (possibly shrunk) spec that
// reproduces it and the field-level diffs.
type Mismatch struct {
	Spec   dsl.Spec   // reproducing spec (after any shrinking)
	Seed   int64      // scenario seed the divergence occurred at
	Scheme sim.Scheme // scheme under test
	Diffs  []string   // field-level "want X got Y" lines from Diff
}

// String renders the mismatch with enough detail to reproduce it.
func (m *Mismatch) String() string {
	return fmt.Sprintf("scheme %v seed %d gateways=%d clients=%d duration=%.0fs profile=%s:\n  %s",
		m.Scheme, m.Seed, m.Spec.Trace.Gateways, m.Spec.Trace.Clients, m.Spec.Duration,
		m.Spec.Trace.Profile, strings.Join(m.Diffs, "\n  "))
}

// CheckSpec builds the spec's scenario, cross-checks one scheme at the
// given shard counts, and reports a Mismatch when the engine and the
// reference disagree (nil when the oracle holds). A scenario that cannot
// be built or run returns an error instead.
func CheckSpec(sp dsl.Spec, seed int64, sc sim.Scheme, shards []int) (*Mismatch, error) {
	cfg, err := BuildConfig(sp, seed, sc)
	if err != nil {
		return nil, err
	}
	diffs, err := CheckConfig(cfg, shards)
	if err != nil {
		return nil, err
	}
	if len(diffs) == 0 {
		return nil, nil
	}
	return &Mismatch{Spec: sp, Seed: seed, Scheme: sc, Diffs: diffs}, nil
}

// Shrink minimizes a failing spec by repeatedly halving gateways, clients
// and horizon (dsl.ShrinkSpec) while the failure persists, returning the
// smallest still-failing mismatch. A halving step that passes (or fails
// to build) ends the descent — the ladder shrinks all three dimensions
// together, which is what makes it terminate in O(log) steps.
func Shrink(m *Mismatch, shards []int) *Mismatch {
	cur := m
	for {
		smaller, ok := dsl.ShrinkSpec(cur.Spec)
		if !ok {
			return cur
		}
		next, err := CheckSpec(smaller, cur.Seed, cur.Scheme, shards)
		if err != nil || next == nil {
			return cur
		}
		cur = next
	}
}
