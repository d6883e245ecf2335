// Package dsl models the ISP-side DSL plant: lines, DSLAM ports, line cards
// and shelves, the random line-to-port assignment observed in production
// (Appendix, Fig 15), and modem synchronization timing.
//
// Terminology follows the paper: a *line* is a customer's twisted pair, a
// *port* (with its modem) terminates one line on a *line card*, and a
// *DSLAM shelf* hosts several cards. The Handover Distribution Frame (HDF)
// is where k-switches (package kswitch) can re-map lines to ports.
package dsl

import (
	"fmt"
	"math"

	"insomnia/internal/stats"
)

// Timing constants measured in §5.1.
const (
	// WakeSeconds is the average gateway+modem wake-up and resync time.
	WakeSeconds = 60.0
	// MaxResyncSeconds is the worst observed ADSL resynchronization.
	MaxResyncSeconds = 180.0
	// IdleTimeoutSeconds is the SoI idle timeout chosen in §5.1 so that the
	// probability of sleeping right before a packet arrives is low (82% of
	// gaps are under 60 s).
	IdleTimeoutSeconds = 60.0
	// TickSeconds is the simulator's metric tick: the width of every
	// result series bin, and so the shortest duration a spec may ask for.
	TickSeconds = 1.0
)

// AttenuationDBPerMeter converts cable length to signal attenuation: in
// ADSL2+ a 1 dB difference corresponds to roughly 70 m (230 ft) of loop
// (Appendix).
const AttenuationDBPerMeter = 1.0 / 70.0

// DSLAM describes a shelf: Cards line cards of PortsPerCard ports each.
type DSLAM struct {
	Cards        int
	PortsPerCard int
}

// Ports returns the total number of ports.
func (d DSLAM) Ports() int { return d.Cards * d.PortsPerCard }

// CardOf returns the card index hosting the given port.
func (d DSLAM) CardOf(port int) int { return port / d.PortsPerCard }

// SlotOf returns the port's position within its card.
func (d DSLAM) SlotOf(port int) int { return port % d.PortsPerCard }

// Validate checks the shape.
func (d DSLAM) Validate() error {
	if d.Cards <= 0 || d.PortsPerCard <= 0 {
		return fmt.Errorf("dsl: invalid DSLAM %dx%d", d.Cards, d.PortsPerCard)
	}
	return nil
}

// EvalDSLAM is the evaluation scenario's shelf: 48 ports in 4 cards of 12
// (§5.1).
var EvalDSLAM = DSLAM{Cards: 4, PortsPerCard: 12}

// RandomAssignment maps each of n lines to a distinct port uniformly at
// random — the Appendix's conclusion from the attenuation measurements is
// that geographic proximity does not correlate with port proximity.
// Returns portOf[line]. n must not exceed d.Ports().
func RandomAssignment(d DSLAM, n int, seed int64) ([]int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if n > d.Ports() {
		return nil, fmt.Errorf("dsl: %d lines exceed %d ports", n, d.Ports())
	}
	r := stats.NewRNG(seed, 0xd51a)
	perm := r.Perm(d.Ports())
	return perm[:n], nil
}

// Attenuations synthesizes per-port attenuation readings like the
// production DSLAM of Fig 15: every card shows the same Gaussian with a
// standard deviation of about one mile of loop (~23 dB in ADSL2+ terms) and
// only minimal variation in mean across cards.
//
// The returned matrix is [card][slot] attenuation in dB above an arbitrary
// baseline n (the paper withholds the absolute level; so do we).
func Attenuations(d DSLAM, seed int64) ([][]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	const (
		sigmaDB    = 23.0 // one mile (1609 m) at 1 dB per 70 m
		meanDB     = 50.0 // arbitrary baseline offset "n+50"
		cardJitter = 1.5  // "minimal variations in mean" across cards
	)
	r := stats.NewRNG(seed, 0xa77e)
	out := make([][]float64, d.Cards)
	for c := range out {
		mu := meanDB + cardJitter*r.NormFloat64()
		out[c] = make([]float64, d.PortsPerCard)
		for s := range out[c] {
			a := mu + sigmaDB*r.NormFloat64()
			if a < 1 {
				a = 1
			}
			out[c][s] = a
		}
	}
	return out, nil
}

// LoopLengthMeters converts an attenuation reading (dB) to an equivalent
// loop length.
func LoopLengthMeters(attenDB float64) float64 {
	return attenDB / AttenuationDBPerMeter
}

// CardMeansSimilar reports whether per-card attenuation means lie within
// tol dB of the global mean — the Fig 15 observation that justifies random
// port assignment.
func CardMeansSimilar(atten [][]float64, tol float64) bool {
	var global stats.Welford
	for _, card := range atten {
		for _, a := range card {
			global.Add(a)
		}
	}
	for _, card := range atten {
		var w stats.Welford
		for _, a := range card {
			w.Add(a)
		}
		if math.Abs(w.Mean()-global.Mean()) > tol {
			return false
		}
	}
	return true
}

// WakeTime draws a wake-up duration: WakeSeconds on average with a spread
// up to MaxResyncSeconds ("resynchronization can be as high as 3 minutes").
// With a nil RNG it returns the deterministic average, which is what the
// §5 evaluation uses.
func WakeTime(r interface{ Float64() float64 }) float64 {
	if r == nil {
		return WakeSeconds
	}
	// Triangular-ish: 45 s floor plus an exponential tail clipped at the
	// observed 3 min maximum; mean stays ~60 s.
	const floor = 45.0
	t := floor - 15 + 30*r.Float64() // 30..60 base
	u := r.Float64()
	if u < 0.25 {
		t += (MaxResyncSeconds - t) * u * 2 // occasional long resync
	}
	if t > MaxResyncSeconds {
		t = MaxResyncSeconds
	}
	return t
}
