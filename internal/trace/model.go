// Package trace models packet/flow-level access network traffic and
// synthesizes CRAWDAD-like traces that reproduce the published statistics of
// the paper's datasets: the UCSD CSE building wireless trace (272 clients,
// 40 APs, 24 h — Figs 3 and 4) and the 10 K-subscriber residential ADSL
// utilization dataset (Fig 2).
//
// The paper's evaluation depends on its traces only through three marginals:
//
//  1. the diurnal per-AP utilization profile (avg peaking ≈8% on 6 Mbps
//     backhaul at 16-17 h for the office trace, near-zero median),
//  2. the peak-hour inter-packet-gap structure (>80% of idle time made of
//     gaps shorter than the 60 s wake-up threshold), and
//  3. a flow arrival/size process for flow-completion-time accounting.
//
// The generator is therefore built from per-client terminal sessions that
// emit heavy-tailed web-like flows interleaved with light keepalive packets
// ("continuous light traffic"), with session presence modulated by a
// time-of-day profile. All randomness is seeded and reproducible.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Day is the trace duration in seconds.
const Day = 86400.0

// DefaultBackhaulBps is the access link speed used throughout the paper's
// evaluation (average downlink of the 10 K residential subscribers).
const DefaultBackhaulBps = 6e6

// Flow is one downlink (or uplink) transfer: a web page, a file download,
// or a rate-limited media stream. Flows are the unit of QoS accounting
// (Fig 9a).
type Flow struct {
	Start  float64 // arrival time, seconds from trace start
	Client int32   // client index
	Bytes  int64   // transfer size
	Rate   float64 // application rate cap in bps; 0 = elastic (TCP bulk)
	Up     bool    // direction; the evaluation uses downlink only
}

// Packet is a single light-traffic packet: keepalives, IM, presence
// protocols — the "continuous light traffic" of §2.4. Packets are what keep
// a gateway's idle timer from expiring.
type Packet struct {
	T      float64 // send time
	Client int32
	Bytes  int32
}

// Trace is a generated packet/flow trace plus its static client/AP layout.
type Trace struct {
	Cfg        Config
	Flows      []Flow   // sorted by Start
	Keepalives []Packet // sorted by T; empty when Cfg.FlowsOnly
	ClientAP   []int    // home AP per client
}

// byStart and byTime are a trace's time order: flows by start time and
// packets by send time. Generate and ReadFlowsCSV sort by them, and
// Validate checks them.
func byStart(a, b Flow) int  { return cmp.Compare(a.Start, b.Start) }
func byTime(a, b Packet) int { return cmp.Compare(a.T, b.T) }

// Validate checks internal invariants: sortedness, index ranges, positive
// sizes, record times within [0, Duration] and finite non-negative rates.
// The generator always produces valid traces; Validate guards deserialized
// input.
func (tr *Trace) Validate() error {
	if len(tr.ClientAP) != tr.Cfg.Clients {
		return fmt.Errorf("trace: ClientAP has %d entries, want %d", len(tr.ClientAP), tr.Cfg.Clients)
	}
	for i, ap := range tr.ClientAP {
		if ap < 0 || ap >= tr.Cfg.APs {
			return fmt.Errorf("trace: client %d mapped to invalid AP %d", i, ap)
		}
	}
	if !slices.IsSortedFunc(tr.Flows, byStart) {
		return fmt.Errorf("trace: flows not sorted by start time")
	}
	if !slices.IsSortedFunc(tr.Keepalives, byTime) {
		return fmt.Errorf("trace: keepalives not sorted by time")
	}
	for i, f := range tr.Flows {
		if f.Bytes <= 0 {
			return fmt.Errorf("trace: flow %d has non-positive size %d", i, f.Bytes)
		}
		if f.Rate < 0 || math.IsNaN(f.Rate) || math.IsInf(f.Rate, 1) {
			return fmt.Errorf("trace: flow %d has invalid rate %v (want finite, >= 0)", i, f.Rate)
		}
		if int(f.Client) < 0 || int(f.Client) >= tr.Cfg.Clients {
			return fmt.Errorf("trace: flow %d has invalid client %d", i, f.Client)
		}
		if !tr.inSpan(f.Start) {
			return fmt.Errorf("trace: flow %d outside trace duration: %v", i, f.Start)
		}
	}
	for i, p := range tr.Keepalives {
		if int(p.Client) < 0 || int(p.Client) >= tr.Cfg.Clients {
			return fmt.Errorf("trace: keepalive %d has invalid client %d", i, p.Client)
		}
		if !tr.inSpan(p.T) {
			return fmt.Errorf("trace: keepalive %d outside trace duration: %v", i, p.T)
		}
	}
	return nil
}

// inSpan reports whether t lies in [0, Duration]. NaN lies nowhere: the
// engine's merge never admits a NaN time, so one such record would stall
// its stream and silently drop every record behind it.
func (tr *Trace) inSpan(t float64) bool { return t >= 0 && t <= tr.Cfg.Duration }

// TotalBytes returns the sum of flow bytes in the given direction.
func (tr *Trace) TotalBytes(up bool) int64 {
	var s int64
	for _, f := range tr.Flows {
		if f.Up == up {
			s += f.Bytes
		}
	}
	return s
}

// ClientsOfAP returns the client indices homed at AP ap.
func (tr *Trace) ClientsOfAP(ap int) []int {
	var out []int
	for c, a := range tr.ClientAP {
		if a == ap {
			out = append(out, c)
		}
	}
	return out
}
