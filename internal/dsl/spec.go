package dsl

// Scenario specification language.
//
// Besides the DSL *plant* model above, this package hosts the other dsl:
// the declarative scenario description language that turns the simulator
// into an experiment platform. A Spec names everything a campaign needs —
// topology, trace profile, schemes, seeds, sweep axes, output artifacts —
// and is parsed from YAML or JSON (see ParseSpec). internal/campaign
// compiles a validated Spec into runner jobs and artifacts; cmd/campaign
// is the CLI.
//
// The package stays simulation-agnostic: schemes are referenced by their
// canonical names (SchemeNames) so dsl does not import internal/sim;
// sim.ParseScheme owns the name -> sim.Scheme mapping and a test pins the
// two lists to each other.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SchemeNames lists the canonical scheme spellings a Spec may reference,
// matching sim.Scheme.String() for every scheme the engine implements.
var SchemeNames = []string{
	"no-sleep",
	"SoI",
	"SoI+k-switch",
	"SoI+full-switch",
	"BH2+k-switch",
	"BH2+full-switch",
	"BH2-nobackup+k-switch",
	"optimal",
	"centralized+k-switch",
}

// Profile names a Spec's trace.profile may use.
var ProfileNames = []string{"office", "residential", "flash-crowd", "diurnal-mix", "churn"}

// Topology kinds a Spec's topology.kind may use.
var TopologyKinds = []string{"overlap", "grid-city", "binomial"}

// SweepAxes lists the parameters a campaign may sweep. Integer axes
// (clients, gateways, k) require whole positive values.
var SweepAxes = []string{"mean-in-range", "clients", "gateways", "k", "idle-timeout", "duration"}

// Output artifact names a Spec may request.
var OutputNames = []string{"summary", "json", "power"}

// Spec declares one campaign: a scenario family (trace x topology), the
// schemes and seeds to run over it, optional sweep axes (cross-product),
// and which artifacts to write.
type Spec struct {
	// Name labels the campaign in artifacts. Default "campaign".
	Name string `json:"name,omitempty"`
	// Schemes to simulate, by canonical name (see SchemeNames). Savings
	// columns are computed against "no-sleep" when it is present.
	Schemes []string `json:"schemes"`
	// Seeds are the base RNG seeds; one full scenario is generated and
	// simulated per seed. Default [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// Duration is the simulated span in seconds. Default 86400 (one day).
	Duration float64 `json:"duration,omitempty"`
	// IdleTimeout overrides the SoI idle timeout (seconds).
	IdleTimeout float64 `json:"idle_timeout,omitempty"`
	// K is the k-switch group size for *k-switch schemes. Default 4.
	K int `json:"k,omitempty"`
	// Shards is the engine shard count per simulation (sim.Config.Shards).
	// 0 (the default) lets the campaign choose: cells saturate the worker
	// pool first, and each simulation shards over whatever cores the pool
	// leaves idle. Results are byte-identical at every value, so the key
	// trades wall-clock only, never fidelity.
	Shards int `json:"shards,omitempty"`
	// Workers caps the campaign's concurrent simulations for this spec.
	// 0 (the default, kept unfilled so pre-existing spec hashes are
	// stable) defers to the embedding layer: the CLI's -workers flag or
	// GOMAXPROCS. Like shards, the key trades wall-clock only — results
	// are byte-identical at every value.
	Workers int `json:"workers,omitempty"`
	// Collapse controls the campaign's symmetry-collapse pass: "auto" (and
	// the "" default, kept unfilled so pre-existing spec hashes are stable)
	// collapses cells into their gateway-equivalence quotient whenever the
	// collapse is provably exact — which requires `placement: symmetric` —
	// and "off" always simulates the full scenario. Artifacts are
	// byte-identical either way; the key trades wall-clock only.
	Collapse string `json:"collapse,omitempty"`

	Trace    TraceSpec `json:"trace"`
	Topology TopoSpec  `json:"topology,omitempty"`
	Shelf    ShelfSpec `json:"dslam,omitempty"`

	// Failures injects deterministic gateway crashes and area power outages
	// into every cell (nil: none). The concrete gateways and reboot times
	// are drawn per seed by the campaign layer, so every scheme in a cell
	// row faces the identical failure schedule. A pointer with omitempty
	// keeps failure-free spec hashes — and their resumable manifests —
	// unchanged.
	Failures *FailureSpec `json:"failures,omitempty"`

	// Sweeps expand the campaign into the cross-product of their values;
	// each combination becomes one scenario variant.
	Sweeps []Sweep `json:"sweeps,omitempty"`
	// Outputs selects artifacts: "summary" (summary.csv), "json"
	// (results.json), "power" (hourly power series CSV). Default
	// ["summary", "json"].
	Outputs []string `json:"outputs,omitempty"`
}

// TraceSpec selects and parameterizes the synthetic workload.
type TraceSpec struct {
	// Profile picks the diurnal workload family: "office" (UCSD-like
	// weekday), "residential" (evening-peak ADSL), "flash-crowd"
	// (residential plus a surge window), "diurnal-mix" (weekday/weekend
	// blend) or "churn" (residential with shortened sessions).
	Profile string `json:"profile"`
	// Clients and Gateways size the scenario; Clients >= Gateways.
	Clients  int `json:"clients"`
	Gateways int `json:"gateways"`

	// Placement controls client-to-gateway association: "shuffled" (and
	// the "" default, kept unfilled so pre-existing spec hashes are
	// stable) uses the profile's seeded shuffled round-robin, "symmetric"
	// pins client c to gateway c%gateways with slot-keyed RNG streams so
	// equal-count gateways carry byte-identical workloads — the
	// prerequisite for the campaign's exact symmetry collapse.
	Placement string `json:"placement,omitempty"`

	// Flash-crowd parameters (profile "flash-crowd"): the surge starts at
	// FlashHour o'clock, lasts FlashHours and multiplies the online
	// fraction by FlashScale. Pointers distinguish "omitted" (take the
	// default: 20, 2, 3) from an explicit value — `flash_hour: 0` is a
	// midnight surge, not the default. WithDefaults resolves omissions, so
	// a normalized spec always carries the values it will simulate.
	FlashHour  *float64 `json:"flash_hour,omitempty"`
	FlashHours *float64 `json:"flash_hours,omitempty"`
	FlashScale *float64 `json:"flash_scale,omitempty"`

	// WeekendFrac blends WeekendProfile into the weekday curve (profile
	// "diurnal-mix"). Omitted: 2/7, the average day of a full week; an
	// explicit 0 is a pure-weekday blend.
	WeekendFrac *float64 `json:"weekend_frac,omitempty"`

	// ChurnFactor shortens sessions (profile "churn"). Omitted: 4.
	ChurnFactor *float64 `json:"churn_factor,omitempty"`
}

// TopoSpec selects the wireless overlap topology generator.
type TopoSpec struct {
	// Kind: "overlap" (Viger-Latapy random graph, the paper's §5.1),
	// "grid-city" (O(n) metro grid, required past a few hundred gateways)
	// or "binomial" (the Fig 10 density model). Default: "overlap" up to
	// 256 gateways, "grid-city" above.
	Kind string `json:"kind,omitempty"`
	// MeanInRange is the mean number of gateways a client can hear,
	// including its home. Default 5.6 (§5.1).
	MeanInRange float64 `json:"mean_in_range,omitempty"`
}

// ShelfSpec shapes the DSLAM shelf. The zero value auto-sizes: the
// paper's 4x12 evaluation shelf when it fits every gateway, otherwise
// enough 48-port cards rounded up to whole k-switch groups.
type ShelfSpec struct {
	Cards        int `json:"cards,omitempty"`
	PortsPerCard int `json:"ports_per_card,omitempty"`
}

// Sweep is one swept axis: the campaign runs every value (cross-product
// across multiple sweeps).
type Sweep struct {
	Axis   string    `json:"axis"`
	Values []float64 `json:"values"`
}

// FailureSpec is the `failures:` block: crash schedules and outage windows,
// plus the reboot-time distribution shared by both.
type FailureSpec struct {
	// RebootMean/RebootSigma parameterize the lognormal reboot-time
	// distribution (seconds; defaults 300 and 0.5).
	RebootMean  float64 `json:"reboot_mean,omitempty"`
	RebootSigma float64 `json:"reboot_sigma,omitempty"`

	Crashes []CrashSpec  `json:"crashes,omitempty"`
	Outages []OutageSpec `json:"outages,omitempty"`
}

// CrashSpec fails Count gateways (default 1), chosen per seed, at time At;
// each reboots after Reboot seconds (0: drawn from the distribution).
type CrashSpec struct {
	At     float64 `json:"at"`
	Count  int     `json:"count,omitempty"`
	Reboot float64 `json:"reboot,omitempty"`
}

// OutageSpec cuts power to a contiguous area covering Frac of the gateways
// (default 0.25), placed per seed, over [Start, Start+Duration).
type OutageSpec struct {
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	Frac     float64 `json:"frac,omitempty"`
}

func (f *FailureSpec) normalize(duration float64) error {
	if f.RebootMean == 0 {
		f.RebootMean = 300
	}
	if f.RebootSigma == 0 {
		f.RebootSigma = 0.5
	}
	if f.RebootMean < 0 || math.IsNaN(f.RebootMean) {
		return fmt.Errorf("dsl: failures reboot_mean %v must be positive", f.RebootMean)
	}
	if f.RebootSigma < 0 || math.IsNaN(f.RebootSigma) {
		return fmt.Errorf("dsl: failures reboot_sigma %v must be non-negative", f.RebootSigma)
	}
	if len(f.Crashes) == 0 && len(f.Outages) == 0 {
		return fmt.Errorf("dsl: failures block needs at least one crash or outage")
	}
	for i := range f.Crashes {
		c := &f.Crashes[i]
		if c.At < 0 || math.IsNaN(c.At) || c.At >= duration {
			return fmt.Errorf("dsl: crash %d at %v outside [0, %v)", i, c.At, duration)
		}
		if c.Count == 0 {
			c.Count = 1
		}
		if c.Count < 0 {
			return fmt.Errorf("dsl: crash %d has negative count %d", i, c.Count)
		}
		if c.Reboot < 0 || math.IsNaN(c.Reboot) {
			return fmt.Errorf("dsl: crash %d has invalid reboot %v", i, c.Reboot)
		}
	}
	for i := range f.Outages {
		o := &f.Outages[i]
		if o.Start < 0 || math.IsNaN(o.Start) || o.Start >= duration {
			return fmt.Errorf("dsl: outage %d starts at %v outside [0, %v)", i, o.Start, duration)
		}
		if o.Duration <= 0 || math.IsNaN(o.Duration) || math.IsInf(o.Duration, 0) {
			return fmt.Errorf("dsl: outage %d has invalid duration %v", i, o.Duration)
		}
		if o.Frac == 0 {
			o.Frac = 0.25
		}
		if o.Frac < 0 || o.Frac > 1 || math.IsNaN(o.Frac) {
			return fmt.Errorf("dsl: outage %d frac %v outside (0, 1]", i, o.Frac)
		}
	}
	return nil
}

// maxCells bounds a campaign's size so a typo'd sweep fails fast instead
// of queueing a month of simulation.
const maxCells = 100_000

// WithDefaults validates s and fills defaults, returning the normalized
// spec. It is the single gate every campaign entry point goes through.
func (s Spec) WithDefaults() (Spec, error) {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if len(s.Schemes) == 0 {
		return s, fmt.Errorf("dsl: spec needs at least one scheme (known: %s)", strings.Join(SchemeNames, ", "))
	}
	for _, sc := range s.Schemes {
		if !contains(SchemeNames, sc) {
			return s, fmt.Errorf("dsl: unknown scheme %q (known: %s)", sc, strings.Join(SchemeNames, ", "))
		}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.Duration == 0 {
		s.Duration = 86400
	}
	if s.Duration < 0 || math.IsNaN(s.Duration) {
		return s, fmt.Errorf("dsl: negative duration %v", s.Duration)
	}
	if s.Duration < TickSeconds {
		return s, fmt.Errorf("dsl: duration %v is shorter than the %v s metric tick", s.Duration, TickSeconds)
	}
	if s.IdleTimeout < 0 {
		return s, fmt.Errorf("dsl: negative idle_timeout %v", s.IdleTimeout)
	}
	if s.K < 0 {
		return s, fmt.Errorf("dsl: negative k %d", s.K)
	}
	if s.K == 0 {
		s.K = 4
	}
	if s.Shards < 0 {
		return s, fmt.Errorf("dsl: negative shards %d", s.Shards)
	}
	if s.Workers < 0 {
		return s, fmt.Errorf("dsl: negative workers %d", s.Workers)
	}
	switch s.Collapse {
	case "", "auto", "off":
	default:
		return s, fmt.Errorf("dsl: unknown collapse mode %q (known: auto, off)", s.Collapse)
	}

	if err := s.Trace.normalize(); err != nil {
		return s, err
	}
	if s.Topology.MeanInRange == 0 {
		s.Topology.MeanInRange = 5.6
	}
	if s.Topology.MeanInRange < 1 {
		return s, fmt.Errorf("dsl: mean_in_range must be >= 1, got %v", s.Topology.MeanInRange)
	}
	if s.Topology.Kind == "" {
		if s.Trace.Gateways > 256 {
			s.Topology.Kind = "grid-city"
		} else {
			s.Topology.Kind = "overlap"
		}
	}
	if !contains(TopologyKinds, s.Topology.Kind) {
		return s, fmt.Errorf("dsl: unknown topology kind %q (known: %s)", s.Topology.Kind, strings.Join(TopologyKinds, ", "))
	}
	if (s.Shelf.Cards == 0) != (s.Shelf.PortsPerCard == 0) {
		return s, fmt.Errorf("dsl: dslam needs both cards and ports_per_card (or neither)")
	}
	if s.Shelf.Cards < 0 || s.Shelf.PortsPerCard < 0 {
		return s, fmt.Errorf("dsl: negative dslam shape %dx%d", s.Shelf.Cards, s.Shelf.PortsPerCard)
	}

	if s.Failures != nil {
		f := *s.Failures // copy so normalization never aliases the input spec
		if err := f.normalize(s.Duration); err != nil {
			return s, err
		}
		s.Failures = &f
	}

	cells := len(s.Schemes) * len(s.Seeds)
	for i, sw := range s.Sweeps {
		if err := sw.validate(); err != nil {
			return s, fmt.Errorf("dsl: sweep %d: %w", i, err)
		}
		cells *= len(sw.Values)
	}
	if cells > maxCells {
		return s, fmt.Errorf("dsl: campaign expands to %d cells (max %d)", cells, maxCells)
	}

	if len(s.Outputs) == 0 {
		s.Outputs = []string{"summary", "json"}
	}
	for _, o := range s.Outputs {
		if !contains(OutputNames, o) {
			return s, fmt.Errorf("dsl: unknown output %q (known: %s)", o, strings.Join(OutputNames, ", "))
		}
	}
	return s, nil
}

func (t *TraceSpec) normalize() error {
	if t.Profile == "" {
		return fmt.Errorf("dsl: trace needs a profile (known: %s)", strings.Join(ProfileNames, ", "))
	}
	if !contains(ProfileNames, t.Profile) {
		return fmt.Errorf("dsl: unknown trace profile %q (known: %s)", t.Profile, strings.Join(ProfileNames, ", "))
	}
	if t.Clients <= 0 || t.Gateways <= 0 {
		return fmt.Errorf("dsl: trace needs positive clients and gateways, got %d/%d", t.Clients, t.Gateways)
	}
	if t.Clients < t.Gateways {
		return fmt.Errorf("dsl: fewer clients (%d) than gateways (%d)", t.Clients, t.Gateways)
	}
	switch t.Placement {
	case "", "shuffled", "symmetric":
	default:
		return fmt.Errorf("dsl: unknown placement %q (known: shuffled, symmetric)", t.Placement)
	}
	switch t.Profile {
	case "flash-crowd":
		t.FlashHour = orDefault(t.FlashHour, 20)
		t.FlashHours = orDefault(t.FlashHours, 2)
		t.FlashScale = orDefault(t.FlashScale, 3)
	case "diurnal-mix":
		t.WeekendFrac = orDefault(t.WeekendFrac, 2.0/7)
	case "churn":
		t.ChurnFactor = orDefault(t.ChurnFactor, 4)
	}
	if t.FlashHour != nil && (*t.FlashHour < 0 || *t.FlashHour >= 24) {
		return fmt.Errorf("dsl: flash_hour %v outside [0, 24)", *t.FlashHour)
	}
	if t.FlashHours != nil && (*t.FlashHours <= 0 || *t.FlashHours > 24) {
		return fmt.Errorf("dsl: flash_hours %v outside (0, 24]", *t.FlashHours)
	}
	if t.FlashScale != nil && *t.FlashScale < 0 {
		return fmt.Errorf("dsl: negative flash_scale %v", *t.FlashScale)
	}
	if t.WeekendFrac != nil && (*t.WeekendFrac < 0 || *t.WeekendFrac > 1) {
		return fmt.Errorf("dsl: weekend_frac %v outside [0, 1]", *t.WeekendFrac)
	}
	if t.ChurnFactor != nil && *t.ChurnFactor <= 0 {
		return fmt.Errorf("dsl: churn_factor %v must be positive", *t.ChurnFactor)
	}
	return nil
}

// orDefault fills an omitted optional parameter.
func orDefault(p *float64, def float64) *float64 {
	if p == nil {
		return &def
	}
	return p
}

func (sw Sweep) validate() error {
	if !contains(SweepAxes, sw.Axis) {
		return fmt.Errorf("unknown axis %q (known: %s)", sw.Axis, strings.Join(SweepAxes, ", "))
	}
	if len(sw.Values) == 0 {
		return fmt.Errorf("axis %q has no values", sw.Axis)
	}
	integer := sw.Axis == "clients" || sw.Axis == "gateways" || sw.Axis == "k"
	for _, v := range sw.Values {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("axis %q value %v must be positive and finite", sw.Axis, v)
		}
		if integer && v != math.Trunc(v) {
			return fmt.Errorf("axis %q value %v must be a whole number", sw.Axis, v)
		}
		if sw.Axis == "duration" && v < TickSeconds {
			return fmt.Errorf("axis %q value %v is shorter than the %v s metric tick", sw.Axis, v, TickSeconds)
		}
	}
	return nil
}

// HasOutput reports whether the (normalized) spec requests the named
// artifact.
func (s Spec) HasOutput(name string) bool { return contains(s.Outputs, name) }

// Hash returns a short stable fingerprint of the spec, used to guard
// checkpoint resume against a spec that changed under the manifest.
func (s Spec) Hash() string {
	buf, err := json.Marshal(s)
	if err != nil { // a Spec of plain values cannot fail to marshal
		panic(err)
	}
	// FNV-1a, inlined to keep the fingerprint format under our control.
	var h uint64 = 0xcbf29ce484222325
	for _, b := range buf {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return strconv.FormatUint(h, 16)
}

// ParseSpec parses a scenario spec from YAML (the subset described in
// yaml.go) or JSON (detected by a leading '{') and validates it via
// WithDefaults. Unknown fields are errors: a typo'd key must not become a
// silently ignored default.
func ParseSpec(data []byte) (Spec, error) {
	var jsonBytes []byte
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		jsonBytes = data
	} else {
		v, err := parseYAML(data)
		if err != nil {
			return Spec{}, err
		}
		jsonBytes, err = json.Marshal(v)
		if err != nil {
			return Spec{}, fmt.Errorf("dsl: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("dsl: spec: %w", err)
	}
	return s.WithDefaults()
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
