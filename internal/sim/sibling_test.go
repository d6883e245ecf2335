package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"insomnia/internal/stats"
)

// diffResults lists every field where got differs from want, bit for bit:
// floats compare by their bits (NaN patterns included), series bin by bin,
// maps by value. It walks Result by reflection, so a field added later is
// compared too, or reported as unhandled. Siblings is skipped: callers
// compare each sibling on its own.
func diffResults(want, got *Result) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	var walk func(path string, w, g reflect.Value)
	walk = func(path string, w, g reflect.Value) {
		switch w.Kind() {
		case reflect.Float64:
			if math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
				add("%s: want %v got %v", path, w.Float(), g.Float())
			}
		case reflect.Int:
			if w.Int() != g.Int() {
				add("%s: want %d got %d", path, w.Int(), g.Int())
			}
		case reflect.Slice:
			if w.IsNil() != g.IsNil() || w.Len() != g.Len() {
				add("%s: want %d entries (nil %v) got %d (nil %v)", path, w.Len(), w.IsNil(), g.Len(), g.IsNil())
				return
			}
			for i := 0; i < w.Len() && len(out) < 20; i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), w.Index(i), g.Index(i))
			}
		case reflect.Map:
			if !reflect.DeepEqual(w.Interface(), g.Interface()) {
				add("%s: want %v got %v", path, w.Interface(), g.Interface())
			}
		case reflect.Struct:
			for i := 0; i < w.NumField(); i++ {
				if f := w.Type().Field(i); f.Name != "Siblings" {
					walk(path+"."+f.Name, w.Field(i), g.Field(i))
				}
			}
		case reflect.Pointer:
			if w.IsNil() || g.IsNil() {
				if w.IsNil() != g.IsNil() {
					add("%s: want nil %v got nil %v", path, w.IsNil(), g.IsNil())
				}
				return
			}
			ws, ok := w.Interface().(*stats.TimeSeries)
			if !ok {
				walk(path, w.Elem(), g.Elem())
				return
			}
			gs := g.Interface().(*stats.TimeSeries)
			if ws.Bins() != gs.Bins() {
				add("%s: want %d bins got %d", path, ws.Bins(), gs.Bins())
				return
			}
			for i := 0; i < ws.Bins(); i++ {
				if math.Float64bits(ws.MeanAt(i)) != math.Float64bits(gs.MeanAt(i)) {
					add("%s bin %d: want %v got %v", path, i, ws.MeanAt(i), gs.MeanAt(i))
					return
				}
			}
		default:
			add("%s: unhandled kind %v", path, w.Kind())
		}
	}
	walk("Result", reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem())
	return out
}

// siblingFamilies are the schemes that share a gateway side.
var siblingFamilies = [][]Scheme{
	{SoI, SoIKSwitch, SoIFullSwitch},
	{BH2KSwitch, BH2FullSwitch},
}

// checkSiblings runs each member of family as the primary with the rest
// as its siblings and requires every result to equal a separate run of
// its scheme bit for bit.
func checkSiblings(t *testing.T, base Config, family []Scheme) {
	t.Helper()
	alone := map[Scheme]*Result{}
	for _, sc := range family {
		cfg := base
		cfg.Scheme = sc
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alone[sc] = res
	}
	for i, sc := range family {
		cfg := base
		cfg.Scheme = sc
		for j, sib := range family {
			if j != i {
				cfg.Siblings = append(cfg.Siblings, sib)
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Siblings) != len(cfg.Siblings) {
			t.Fatalf("%v: %d sibling results for %d siblings", sc, len(res.Siblings), len(cfg.Siblings))
		}
		for k, got := range append([]*Result{res}, res.Siblings...) {
			want := alone[sc]
			if k > 0 {
				want = alone[cfg.Siblings[k-1]]
			}
			if d := diffResults(want, got); len(d) > 0 {
				t.Errorf("%v run with siblings %v: %v differs from its own run:\n%v", sc, cfg.Siblings, want.Scheme, d)
			}
		}
	}
}

// TestSiblingsMatchSeparateRuns pins the fan-out contract: one run driving
// several switch fabrics returns, for each, exactly the Result a separate
// run of that scheme returns, at every shard count, with and without
// failures.
func TestSiblingsMatchSeparateRuns(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	for _, failures := range []bool{false, true} {
		for _, shards := range []int{1, 2, 3} {
			for _, family := range siblingFamilies {
				family, failures, shards := family, failures, shards
				t.Run(fmt.Sprintf("%v/failures=%v/shards=%d", family[0], failures, shards), func(t *testing.T) {
					t.Parallel()
					cfg := Config{Trace: tr, Topo: tp, Seed: 9, K: 2, Shards: shards}
					if failures {
						cfg.Failures = testFailurePlan()
					}
					checkSiblings(t, cfg, family)
				})
			}
		}
	}
}

// TestSiblingsUnderQuotient: the collapse admits SoI and SoI+full-switch,
// and as siblings of one collapsed run they still match their separate
// collapsed runs bit for bit, failure-affected singleton classes included.
func TestSiblingsUnderQuotient(t *testing.T) {
	const nGW, clients = 36, 144
	forced := make([]bool, nGW)
	for _, g := range []int{2, 3, 4, 7} {
		forced[g] = true
	}
	plain := buildQuotientFixture(t, nGW, clients, 9, nil)
	failing := buildQuotientFixture(t, nGW, clients, 13, forced)
	outage := make([]int, 0, 3)
	for gw := 2; gw < 5; gw++ {
		outage = append(outage, int(failing.q.FullHome[gw]))
	}
	failing.quot.Failures = FailurePlan{
		Crashes: []GatewayCrash{{At: 5000, Gateway: int(failing.q.FullHome[7])}},
		Outages: []OutageWindow{{Start: 8000, DurationSec: 1500, Gateways: outage}},
	}
	for name, fx := range map[string]*quotientFixture{"plain": plain, "failures": failing} {
		for _, shards := range []int{1, 2, 3} {
			fx, shards := fx, shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				t.Parallel()
				cfg := fx.quot
				cfg.Shards = shards
				checkSiblings(t, cfg, []Scheme{SoI, SoIFullSwitch})
			})
		}
	}
}

// TestSiblingsRejected: a sibling must share the primary's gateway side,
// and under a quotient plan the collapse must admit it.
func TestSiblingsRejected(t *testing.T) {
	tr, tp := smallScenario(t, 3)
	for _, tc := range []struct {
		scheme  Scheme
		sibling Scheme
	}{
		{NoSleep, SoI},
		{SoI, NoSleep},
		{BH2KSwitch, BH2NoBackup},
		{SoI, BH2KSwitch},
		{Optimal, Centralized},
	} {
		cfg := Config{Trace: tr, Topo: tp, Scheme: tc.scheme, Siblings: []Scheme{tc.sibling}, Seed: 3, K: 2}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%v accepted sibling %v", tc.scheme, tc.sibling)
		}
	}
	fx := buildQuotientFixture(t, 36, 144, 9, nil)
	cfg := fx.quot
	cfg.Scheme, cfg.Siblings = SoI, []Scheme{SoIKSwitch}
	if _, err := Run(cfg); err == nil {
		t.Error("a quotient run accepted SoI+k-switch as a sibling")
	}
}

// TestGatewaySideFamilies pins which schemes share a gateway side.
func TestGatewaySideFamilies(t *testing.T) {
	want := map[Scheme]Scheme{
		NoSleep: NoSleep, SoI: SoI, SoIKSwitch: SoI, SoIFullSwitch: SoI,
		BH2KSwitch: BH2KSwitch, BH2FullSwitch: BH2KSwitch, BH2NoBackup: BH2NoBackup,
		Optimal: Optimal, Centralized: Centralized,
	}
	for sc := NoSleep; sc <= Centralized; sc++ {
		if got := GatewaySide(sc); got != want[sc] {
			t.Errorf("GatewaySide(%v) = %v, want %v", sc, got, want[sc])
		}
	}
}

// TestDiffResultsSeesFabrics guards the comparison itself: two fabrics of
// one family must differ somewhere, or the sibling checks prove nothing.
func TestDiffResultsSeesFabrics(t *testing.T) {
	tr, tp := smallScenario(t, 9)
	d := diffResults(run(t, tr, tp, SoI, 9), run(t, tr, tp, SoIKSwitch, 9))
	if len(d) == 0 {
		t.Fatal("SoI and SoI+k-switch compare equal")
	}
	for _, line := range d {
		if strings.Contains(line, "unhandled") {
			t.Error(line)
		}
	}
}
