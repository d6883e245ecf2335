// Package quotient partitions the gateways of a symmetric scenario into
// equivalence classes and derives the collapsed ("quotient") scenario that
// simulates one representative per class with a multiplicity weight.
//
// The partition itself is mechanical — group by fingerprint — and the
// exactness burden sits with the caller (internal/campaign): a class may
// only be collapsed when the simulated behavior of its members is provably
// identical. For this repository's engine that holds exactly when
//
//   - the trace was generated with symmetric placement (trace.Config.
//     Symmetric), so equal-count gateways carry byte-identical workloads;
//   - the scheme routes every client to its home gateway and has no
//     cross-gateway coupling beyond the DSLAM switch fabric
//     (sim.Collapsible);
//   - failure-affected gateways are pinned into singleton classes
//     (forced), so stranding and recovery dynamics stay per-gateway exact.
//
// Under those conditions the quotient run's per-representative trajectory
// is bit-identical to each member's trajectory in the full run, and the
// engine's multiplicity-weighted accounting (sim.Config.Quotient) folds
// metrics back out bit-exactly.
package quotient

import (
	"fmt"
	"sort"
)

// Class is one equivalence class of gateways of the full scenario.
type Class struct {
	// Members are the full-scenario gateway ids in the class, ascending.
	Members []int
	// Clients is the number of clients each member serves.
	Clients int
}

// Partition groups gateways into equivalence classes by exact fingerprint:
// (clients served, canonical neighborhood hash). Gateways with forced[g]
// set (failure-affected ones) become singleton classes regardless of
// fingerprint. hoods comes from topology.(*Graph).NeighborhoodHashes;
// clientCount[g] is the number of clients homed on gateway g.
//
// Classes are ordered largest-client-count first, ties by smallest member
// id. That ordering is load-bearing: the quotient trace is generated with
// round-robin symmetric placement over the representatives, which assigns
// ceil(C'/R) clients to the first C'%R representatives — so classes with
// the larger client count must come first for each representative to
// reproduce its members' exact client slots (Build verifies this).
func Partition(hoods []uint64, clientCount []int, forced []bool) []Class {
	type key struct {
		clients int
		hood    uint64
		forced  int // forced singletons carry their own id, never merged
	}
	byKey := map[key]*Class{}
	var classes []*Class
	for g := range hoods {
		k := key{clients: clientCount[g], hood: hoods[g], forced: -1}
		if forced != nil && forced[g] {
			k.forced = g
		}
		c := byKey[k]
		if c == nil {
			c = &Class{Clients: clientCount[g]}
			byKey[k] = c
			classes = append(classes, c)
		}
		c.Members = append(c.Members, g)
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].Clients != classes[j].Clients {
			return classes[i].Clients > classes[j].Clients
		}
		return classes[i].Members[0] < classes[j].Members[0]
	})
	out := make([]Class, len(classes))
	for i, c := range classes {
		out[i] = *c
	}
	return out
}

// Quotient is the collapsed scenario derived from a partition: class i of
// the partition becomes gateway i of the quotient scenario.
type Quotient struct {
	// Classes is the partition, in Partition's largest-first order.
	Classes []Class
	// Rep[i] is the full gateway id representing class i (its smallest
	// member).
	Rep []int
	// Weight[i] is the multiplicity of class i.
	Weight []float64
	// FullHome maps every full gateway id to its class (= quotient
	// gateway) index.
	FullHome []int32
	// FullGateways and FullClients size the full scenario.
	FullGateways, FullClients int
	// Clients is the quotient scenario's client count: sum over classes of
	// their per-member client count.
	Clients int
}

// Build derives the quotient scenario from a partition over a full
// scenario with fullClients clients under symmetric placement (client c
// homed on gateway c % fullGateways). It verifies the round-robin
// invariant — generating a symmetric trace with Clients: q.Clients,
// APs: len(classes) must hand representative i exactly Classes[i].Clients
// clients — and errors if the partition cannot reproduce it, in which
// case the caller must fall back to full simulation.
func Build(classes []Class, fullGateways, fullClients int) (*Quotient, error) {
	q := &Quotient{
		Classes:      classes,
		Rep:          make([]int, len(classes)),
		Weight:       make([]float64, len(classes)),
		FullHome:     make([]int32, fullGateways),
		FullGateways: fullGateways,
		FullClients:  fullClients,
	}
	covered := 0
	for i, c := range classes {
		if len(c.Members) == 0 {
			return nil, fmt.Errorf("quotient: class %d is empty", i)
		}
		q.Rep[i] = c.Members[0]
		q.Weight[i] = float64(len(c.Members))
		q.Clients += c.Clients
		for _, g := range c.Members {
			if g < 0 || g >= fullGateways {
				return nil, fmt.Errorf("quotient: gateway %d outside [0, %d)", g, fullGateways)
			}
			q.FullHome[g] = int32(i)
		}
		covered += len(c.Members)
	}
	if covered != fullGateways {
		return nil, fmt.Errorf("quotient: classes cover %d of %d gateways", covered, fullGateways)
	}
	r := len(classes)
	for i, c := range classes {
		want := q.Clients / r
		if i < q.Clients%r {
			want++
		}
		if c.Clients != want {
			return nil, fmt.Errorf("quotient: class %d serves %d clients but round-robin placement of %d clients over %d representatives hands it %d",
				i, c.Clients, q.Clients, r, want)
		}
	}
	return q, nil
}

// FullClientOf maps every full-scenario client to its quotient-scenario
// counterpart: full client c (gateway c%N, slot c/N) corresponds to
// quotient client FullHome[c%N] + (c/N)*R. The engine uses this to fold
// per-client metrics (stranded seconds) in the full scenario's exact
// iteration order.
func (q *Quotient) FullClientOf() []int32 {
	out := make([]int32, q.FullClients)
	r := len(q.Classes)
	for c := range out {
		out[c] = q.FullHome[c%q.FullGateways] + int32(c/q.FullGateways*r)
	}
	return out
}

// SymmetricCounts returns the per-gateway client counts of a symmetric
// placement of clients over n gateways: gateway g serves clients/n plus
// one if g < clients%n.
func SymmetricCounts(clients, n int) []int {
	out := make([]int, n)
	for g := range out {
		out[g] = clients / n
		if g < clients%n {
			out[g]++
		}
	}
	return out
}
