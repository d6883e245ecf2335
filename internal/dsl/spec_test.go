package dsl

import (
	"math"
	"strings"
	"testing"
)

const specYAML = `
# A small campaign spec exercising every section.
name: unit-test
schemes: [no-sleep, SoI, BH2+k-switch]
seeds: [1, 2]
duration: 7200
k: 2
shards: 3
idle_timeout: 30
trace:
  profile: flash-crowd
  clients: 120
  gateways: 24
  flash_hour: 20
  flash_hours: 2
  flash_scale: 3
topology:
  kind: grid-city
  mean_in_range: 5.6
dslam:
  cards: 2
  ports_per_card: 16
sweeps:
  - axis: mean-in-range
    values: [5.6, 7]
  - axis: k
    values: [2, 4]
outputs: [summary, json, power]
`

func TestParseSpecYAML(t *testing.T) {
	s, err := ParseSpec([]byte(specYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "unit-test" || len(s.Schemes) != 3 || s.Schemes[2] != "BH2+k-switch" {
		t.Errorf("schemes parsed wrong: %+v", s)
	}
	if len(s.Seeds) != 2 || s.Seeds[1] != 2 {
		t.Errorf("seeds parsed wrong: %v", s.Seeds)
	}
	if s.Duration != 7200 || s.K != 2 || s.IdleTimeout != 30 || s.Shards != 3 {
		t.Errorf("scalars parsed wrong: %+v", s)
	}
	if s.Trace.Profile != "flash-crowd" || s.Trace.Clients != 120 || *s.Trace.FlashScale != 3 {
		t.Errorf("trace parsed wrong: %+v", s.Trace)
	}
	if s.Topology.Kind != "grid-city" || s.Topology.MeanInRange != 5.6 {
		t.Errorf("topology parsed wrong: %+v", s.Topology)
	}
	if s.Shelf.Cards != 2 || s.Shelf.PortsPerCard != 16 {
		t.Errorf("dslam parsed wrong: %+v", s.Shelf)
	}
	if len(s.Sweeps) != 2 || s.Sweeps[0].Axis != "mean-in-range" || len(s.Sweeps[1].Values) != 2 {
		t.Errorf("sweeps parsed wrong: %+v", s.Sweeps)
	}
	if !s.HasOutput("power") || s.HasOutput("nope") {
		t.Errorf("outputs parsed wrong: %v", s.Outputs)
	}
}

func TestParseSpecSequenceAtKeyIndent(t *testing.T) {
	// YAML also allows block sequences at the parent key's own indent.
	s, err := ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: office
  clients: 10
  gateways: 2
sweeps:
- axis: k
  values: [2, 4]
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sweeps) != 1 || s.Sweeps[0].Axis != "k" || len(s.Sweeps[0].Values) != 2 {
		t.Errorf("sweeps parsed wrong: %+v", s.Sweeps)
	}
}

func TestParseSpecJSON(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"schemes": ["no-sleep", "optimal"],
		"trace": {"profile": "office", "clients": 50, "gateways": 10}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Schemes) != 2 || s.Trace.Clients != 50 {
		t.Errorf("JSON spec parsed wrong: %+v", s)
	}
}

func TestSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: office
  clients: 100
  gateways: 10
`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "campaign" || s.Duration != 86400 || s.K != 4 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if len(s.Seeds) != 1 || s.Seeds[0] != 1 {
		t.Errorf("default seeds wrong: %v", s.Seeds)
	}
	if s.Topology.Kind != "overlap" || s.Topology.MeanInRange != 5.6 {
		t.Errorf("default topology wrong: %+v", s.Topology)
	}
	if len(s.Outputs) != 2 || !s.HasOutput("summary") || !s.HasOutput("json") {
		t.Errorf("default outputs wrong: %v", s.Outputs)
	}
	// Large scenarios default to the O(n) grid generator.
	big, err := ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: residential
  clients: 4000
  gateways: 1000
`))
	if err != nil {
		t.Fatal(err)
	}
	if big.Topology.Kind != "grid-city" {
		t.Errorf("large scenario should default to grid-city, got %q", big.Topology.Kind)
	}
}

func ptr(v float64) *float64 { return &v }

// TestProfileParamResolution pins the omitted-vs-explicit-zero contract:
// omitted flash parameters resolve to their defaults, while an explicit
// `flash_hour: 0` stays a midnight surge instead of silently becoming
// the 20:00 default.
func TestProfileParamResolution(t *testing.T) {
	s, err := ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: flash-crowd
  clients: 100
  gateways: 10
  flash_hour: 0
`))
	if err != nil {
		t.Fatal(err)
	}
	if *s.Trace.FlashHour != 0 {
		t.Errorf("explicit flash_hour 0 must survive, got %v", *s.Trace.FlashHour)
	}
	if *s.Trace.FlashHours != 2 || *s.Trace.FlashScale != 3 {
		t.Errorf("omitted params must take defaults, got %v/%v", *s.Trace.FlashHours, *s.Trace.FlashScale)
	}
	m, err := ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: diurnal-mix
  clients: 100
  gateways: 10
  weekend_frac: 0
`))
	if err != nil {
		t.Fatal(err)
	}
	if *m.Trace.WeekendFrac != 0 {
		t.Errorf("explicit weekend_frac 0 must survive, got %v", *m.Trace.WeekendFrac)
	}
	// Params of other profiles stay unset.
	if m.Trace.FlashHour != nil || m.Trace.ChurnFactor != nil {
		t.Errorf("unrelated profile params must stay nil: %+v", m.Trace)
	}
}

// errSpec returns a valid spec mutated by f, for error-path tests.
func errSpec(f func(*Spec)) Spec {
	s := Spec{
		Schemes: []string{"SoI"},
		Trace:   TraceSpec{Profile: "office", Clients: 100, Gateways: 10},
	}
	f(&s)
	return s
}

// A run shorter than the engine's metric tick has no result bin, so the
// spec rejects it, as a duration or a duration sweep value.
func TestDurationAtLeastOneTick(t *testing.T) {
	for _, tc := range []struct {
		d  float64
		ok bool
	}{{0.5, false}, {math.Nextafter(TickSeconds, 0), false}, {TickSeconds, true}, {7200, true}} {
		_, err := errSpec(func(s *Spec) { s.Duration = tc.d }).WithDefaults()
		if (err == nil) != tc.ok {
			t.Errorf("duration %v: error %v, want ok=%v", tc.d, err, tc.ok)
		}
		_, err = errSpec(func(s *Spec) { s.Sweeps = []Sweep{{Axis: "duration", Values: []float64{3600, tc.d}}} }).WithDefaults()
		if (err == nil) != tc.ok {
			t.Errorf("duration sweep value %v: error %v, want ok=%v", tc.d, err, tc.ok)
		}
	}
}

func TestSpecErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown scheme", errSpec(func(s *Spec) { s.Schemes = []string{"BH3"} }), "unknown scheme"},
		{"no schemes", errSpec(func(s *Spec) { s.Schemes = nil }), "at least one scheme"},
		{"negative duration", errSpec(func(s *Spec) { s.Duration = -3600 }), "negative duration"},
		{"negative idle timeout", errSpec(func(s *Spec) { s.IdleTimeout = -1 }), "negative idle_timeout"},
		{"negative k", errSpec(func(s *Spec) { s.K = -2 }), "negative k"},
		{"negative shards", errSpec(func(s *Spec) { s.Shards = -1 }), "negative shards"},
		{"unknown profile", errSpec(func(s *Spec) { s.Trace.Profile = "weekend" }), "unknown trace profile"},
		{"missing profile", errSpec(func(s *Spec) { s.Trace.Profile = "" }), "needs a profile"},
		{"no clients", errSpec(func(s *Spec) { s.Trace.Clients = 0 }), "positive clients"},
		{"negative gateways", errSpec(func(s *Spec) { s.Trace.Gateways = -4 }), "positive clients"},
		{"clients below gateways", errSpec(func(s *Spec) { s.Trace.Clients = 5 }), "fewer clients"},
		{"flash hour range", errSpec(func(s *Spec) { s.Trace.FlashHour = ptr(24.0) }), "flash_hour"},
		{"zero flash hours", errSpec(func(s *Spec) { s.Trace.FlashHours = ptr(0.0) }), "flash_hours"},
		{"negative churn", errSpec(func(s *Spec) { s.Trace.ChurnFactor = ptr(-1.0) }), "churn_factor"},
		{"weekend frac range", errSpec(func(s *Spec) { s.Trace.WeekendFrac = ptr(1.5) }), "weekend_frac"},
		{"unknown topology", errSpec(func(s *Spec) { s.Topology.Kind = "mesh" }), "unknown topology kind"},
		{"mean in range", errSpec(func(s *Spec) { s.Topology.MeanInRange = 0.5 }), "mean_in_range"},
		{"half dslam", errSpec(func(s *Spec) { s.Shelf.Cards = 4 }), "dslam"},
		{"unknown sweep axis", errSpec(func(s *Spec) { s.Sweeps = []Sweep{{Axis: "density", Values: []float64{1}}} }), "unknown axis"},
		{"empty sweep values", errSpec(func(s *Spec) { s.Sweeps = []Sweep{{Axis: "k"}} }), "no values"},
		{"negative sweep value", errSpec(func(s *Spec) { s.Sweeps = []Sweep{{Axis: "duration", Values: []float64{-60}}} }), "positive"},
		{"fractional integer axis", errSpec(func(s *Spec) { s.Sweeps = []Sweep{{Axis: "clients", Values: []float64{10.5}}} }), "whole number"},
		{"unknown output", errSpec(func(s *Spec) { s.Outputs = []string{"pdf"} }), "unknown output"},
		{"cell explosion", errSpec(func(s *Spec) {
			vals := make([]float64, 400)
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			s.Sweeps = []Sweep{{Axis: "k", Values: vals}, {Axis: "gateways", Values: vals}}
		}), "cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.WithDefaults()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseSpecRejectsUnknownKeys(t *testing.T) {
	_, err := ParseSpec([]byte(`
schemes: [SoI]
shceme_typo: 3
trace:
  profile: office
  clients: 100
  gateways: 10
`))
	if err == nil || !strings.Contains(err.Error(), "shceme_typo") {
		t.Errorf("unknown key should be an error, got %v", err)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tabs", "a:\n\tb: 1", "tabs"},
		{"missing colon", "just words", "key: value"},
		{"colon needs space", "a:1", "followed by a space"},
		{"unterminated flow", "a: [1, 2", "unterminated flow"},
		{"unterminated string", `a: "oops`, "unterminated string"},
		{"flow mapping", "a: {b: 1}", "flow mappings"},
		{"multi-doc", "---\na: 1", "multi-document"},
		{"anchor", "a: &x 1", "anchors"},
		{"duplicate key", "a: 1\na: 2", "duplicate key"},
		{"empty", "  \n# only a comment\n", "empty document"},
		{"stray indent", "a: 1\n  b: 2", "unexpected indent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseYAML(%q) error = %v, want mention of %q", tc.src, err, tc.want)
			}
		})
	}
}

// TestParseYAMLApostropheInBareScalar pins that a quote character inside
// a bare scalar is plain text: the trailing comment still strips and
// flow-sequence commas still split.
func TestParseYAMLApostropheInBareScalar(t *testing.T) {
	v, err := parseYAML([]byte(`
name: bob's run   # campaign label
list: [bob's-x, SoI]
`))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["name"] != "bob's run" {
		t.Errorf("comment not stripped after apostrophe: %q", m["name"])
	}
	l := m["list"].([]any)
	if len(l) != 2 || l[0] != "bob's-x" || l[1] != "SoI" {
		t.Errorf("flow list with apostrophe parsed wrong: %v", l)
	}
}

func TestParseYAMLScalars(t *testing.T) {
	v, err := parseYAML([]byte(`
int: 42
neg: -7
float: 5.6
exp: 1e3
str: hello world
quoted: "a # not-a-comment"
single: 'it''s'
truthy: true
nothing: null
empty_list: []
list: [1, 'two', 3.5]
`))
	if err != nil {
		t.Fatal(err)
	}
	m := v.(map[string]any)
	if m["int"] != int64(42) || m["neg"] != int64(-7) || m["float"] != 5.6 || m["exp"] != 1e3 {
		t.Errorf("numbers parsed wrong: %v", m)
	}
	if m["str"] != "hello world" || m["quoted"] != "a # not-a-comment" || m["single"] != "it's" {
		t.Errorf("strings parsed wrong: %v", m)
	}
	if m["truthy"] != true || m["nothing"] != nil {
		t.Errorf("literals parsed wrong: %v", m)
	}
	if l := m["empty_list"].([]any); len(l) != 0 {
		t.Errorf("empty list parsed wrong: %v", l)
	}
	l := m["list"].([]any)
	if len(l) != 3 || l[0] != int64(1) || l[1] != "two" || l[2] != 3.5 {
		t.Errorf("flow list parsed wrong: %v", l)
	}
}

func TestParseSpecFailures(t *testing.T) {
	s, err := ParseSpec([]byte(`
schemes: [SoI, BH2+k-switch]
duration: 7200
trace:
  profile: office
  clients: 120
  gateways: 24
failures:
  reboot_mean: 120
  crashes:
    - at: 1800
    - at: 4000
      count: 3
      reboot: 60
  outages:
    - start: 3600
      duration: 900
      frac: 0.5
`))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Failures
	if f == nil {
		t.Fatal("failures block not parsed")
	}
	if f.RebootMean != 120 || f.RebootSigma != 0.5 {
		t.Errorf("reboot distribution wrong: %+v", f)
	}
	if len(f.Crashes) != 2 || f.Crashes[0].Count != 1 || f.Crashes[1].Count != 3 || f.Crashes[1].Reboot != 60 {
		t.Errorf("crashes parsed wrong: %+v", f.Crashes)
	}
	if len(f.Outages) != 1 || f.Outages[0].Frac != 0.5 || f.Outages[0].Duration != 900 {
		t.Errorf("outages parsed wrong: %+v", f.Outages)
	}
	// Default frac fills in when omitted.
	s2, err := ParseSpec([]byte(`
schemes: [SoI]
trace:
  profile: office
  clients: 10
  gateways: 2
failures:
  outages:
    - start: 100
      duration: 60
`))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Failures.Outages[0].Frac != 0.25 {
		t.Errorf("default frac wrong: %v", s2.Failures.Outages[0].Frac)
	}
}

func TestSpecFailureErrorPaths(t *testing.T) {
	fs := func(f FailureSpec) Spec {
		return errSpec(func(s *Spec) { s.Failures = &f })
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty block", fs(FailureSpec{}), "at least one crash or outage"},
		{"crash past horizon", fs(FailureSpec{Crashes: []CrashSpec{{At: 90000}}}), "outside"},
		{"negative crash time", fs(FailureSpec{Crashes: []CrashSpec{{At: -1}}}), "outside"},
		{"negative count", fs(FailureSpec{Crashes: []CrashSpec{{At: 100, Count: -2}}}), "negative count"},
		{"negative reboot", fs(FailureSpec{Crashes: []CrashSpec{{At: 100, Reboot: -5}}}), "invalid reboot"},
		{"outage past horizon", fs(FailureSpec{Outages: []OutageSpec{{Start: 90000, Duration: 60}}}), "outside"},
		{"zero outage duration", fs(FailureSpec{Outages: []OutageSpec{{Start: 100}}}), "invalid duration"},
		{"frac above one", fs(FailureSpec{Outages: []OutageSpec{{Start: 100, Duration: 60, Frac: 1.5}}}), "frac"},
		{"negative reboot mean", fs(FailureSpec{RebootMean: -1, Crashes: []CrashSpec{{At: 100}}}), "reboot_mean"},
		{"negative reboot sigma", fs(FailureSpec{RebootSigma: -1, Crashes: []CrashSpec{{At: 100}}}), "reboot_sigma"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.WithDefaults()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Normalization must copy, never mutate the caller's FailureSpec.
	in := errSpec(func(s *Spec) {
		s.Failures = &FailureSpec{Crashes: []CrashSpec{{At: 100}}}
	})
	if _, err := in.WithDefaults(); err != nil {
		t.Fatal(err)
	}
	if in.Failures.RebootMean != 0 {
		t.Errorf("WithDefaults mutated the input failure spec: %+v", in.Failures)
	}
}

// TestSpecHashFailureFreeUnchanged pins that adding the failures field
// did not change the hash of specs that do not use it: resumable
// manifests written before the field existed must still match.
func TestSpecHashFailureFreeUnchanged(t *testing.T) {
	s, err := ParseSpec([]byte(specYAML))
	if err != nil {
		t.Fatal(err)
	}
	if s.Failures != nil {
		t.Fatal("spec without a failures block must keep a nil pointer")
	}
	withF := s
	withF.Failures = &FailureSpec{RebootMean: 300, RebootSigma: 0.5, Crashes: []CrashSpec{{At: 100, Count: 1}}}
	if withF.Hash() == s.Hash() {
		t.Error("adding a failures block must change the hash")
	}
}

func TestSpecHashStable(t *testing.T) {
	a, err := ParseSpec([]byte(specYAML))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(specYAML))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Error("hash must be deterministic")
	}
	c := a
	c.Seeds = []int64{1, 3}
	if c.Hash() == a.Hash() {
		t.Error("hash must change when the spec changes")
	}
}
