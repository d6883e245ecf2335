// Package kswitch implements §4's line switching at the Handover
// Distribution Frame: small k×k relay switches that re-terminate customer
// lines on different DSLAM ports so that active lines batch onto as few
// line cards as possible, letting the remaining cards sleep.
//
// Physical arrangement (Fig 5 left): line cards are batched in groups of k;
// the s-th k-switch connects to slot s of each of the k cards in the group,
// so a line wired to switch s can terminate on (card 0, slot s) ...
// (card k-1, slot s) — one of k ports, all at the same slot.
//
// Three policies are provided:
//
//   - Fixed: no switching; a line keeps its original port forever (the
//     plain SoI scheme).
//   - KSwitch: remaps a line only when its gateway wakes (the paper's rule
//     to avoid disrupting active flows), packing active lines toward the
//     highest-numbered card of each group.
//   - FullSwitch: the idealized Optimal — any line to any port, repacked
//     with zero disruption. It keeps only the active-line count: a card's
//     power state depends on whether any active line terminates on it,
//     not on which one, so after an ideal repack the count alone says
//     which cards are awake.
package kswitch

import (
	"fmt"
	"math/rand"

	"insomnia/internal/dsl"
)

// Policy tracks which line cards must be awake as lines wake and sleep.
type Policy interface {
	// OnWake is called when the line's gateway starts carrying traffic
	// again; the policy may remap the line (this is the only moment the
	// paper allows k-switches to act).
	OnWake(line int)
	// OnSleep is called when the line's gateway goes to sleep.
	OnSleep(line int)
	// CardAwake reports whether any active line terminates on card cd (an
	// awake card burns power.LineCardWatts).
	CardAwake(cd int) bool
	// AwakeCardCount returns the number of awake cards in O(1).
	AwakeCardCount() int
}

// base holds the port-level bookkeeping of the policies that wire each
// line to one port (Fixed, KSwitch). Card occupancy is tracked
// incrementally — every mutation of line activity or position goes
// through setActive/move — so per-sample queries (AwakeCardCount) are O(1)
// instead of rescanning all lines.
type base struct {
	d          dsl.DSLAM
	portOf     []int // line -> port
	lineAt     []int // port -> line, -1 when unwired
	active     []bool
	cardActive []int // per card: active lines terminating on it
	awakeCards int   // cards with cardActive > 0
}

func newBase(d dsl.DSLAM, initialPort []int) (*base, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	b := &base{
		d:          d,
		portOf:     append([]int(nil), initialPort...),
		lineAt:     make([]int, d.Ports()),
		active:     make([]bool, len(initialPort)),
		cardActive: make([]int, d.Cards),
	}
	for p := range b.lineAt {
		b.lineAt[p] = -1
	}
	for line, p := range b.portOf {
		if p < 0 || p >= d.Ports() {
			return nil, fmt.Errorf("kswitch: line %d on invalid port %d", line, p)
		}
		if b.lineAt[p] != -1 {
			return nil, fmt.Errorf("kswitch: port %d terminates two lines", p)
		}
		b.lineAt[p] = line
	}
	return b, nil
}

func (b *base) CardAwake(cd int) bool { return b.cardActive[cd] > 0 }

func (b *base) AwakeCardCount() int { return b.awakeCards }

// setActive flips a line's activity, maintaining the card occupancy counts.
func (b *base) setActive(line int, v bool) {
	if b.active[line] == v {
		return
	}
	b.active[line] = v
	cd := b.d.CardOf(b.portOf[line])
	if v {
		b.cardActive[cd]++
		if b.cardActive[cd] == 1 {
			b.awakeCards++
		}
	} else {
		b.cardActive[cd]--
		if b.cardActive[cd] == 0 {
			b.awakeCards--
		}
	}
}

// move re-terminates line onto port dst, swapping with whatever line is
// wired there (the displaced line must be inactive; k-switches are relays —
// swapping two idle positions disturbs nobody).
func (b *base) move(line, dst int) {
	src := b.portOf[line]
	if src == dst {
		return
	}
	other := b.lineAt[dst]
	if other != -1 {
		if b.active[other] {
			panic(fmt.Sprintf("kswitch: displacing active line %d", other))
		}
		b.portOf[other] = src
	}
	b.lineAt[src] = other
	b.portOf[line] = dst
	b.lineAt[dst] = line
	if b.active[line] {
		sc, dc := b.d.CardOf(src), b.d.CardOf(dst)
		if sc != dc {
			b.cardActive[sc]--
			if b.cardActive[sc] == 0 {
				b.awakeCards--
			}
			b.cardActive[dc]++
			if b.cardActive[dc] == 1 {
				b.awakeCards++
			}
		}
	}
}

// Fixed is the no-switching policy.
type Fixed struct{ *base }

// NewFixed wires each line to its initial port permanently.
func NewFixed(d dsl.DSLAM, initialPort []int) (*Fixed, error) {
	b, err := newBase(d, initialPort)
	if err != nil {
		return nil, err
	}
	return &Fixed{b}, nil
}

// OnWake marks the line active; no remapping.
func (f *Fixed) OnWake(line int) { f.setActive(line, true) }

// OnSleep marks the line inactive.
func (f *Fixed) OnSleep(line int) { f.setActive(line, false) }

// KSwitch implements the paper's k-switch policy. The switch group of a
// line is determined by its slot: all ports at slot s across the k cards of
// a group belong to switch s.
type KSwitch struct {
	*base
	groupCards int // k: cards per group
}

// NewKSwitch builds the policy: the DSLAM's cards are batched in groups of
// k (d.Cards must be divisible by k); there is one k-switch per (group,
// slot) pair.
func NewKSwitch(d dsl.DSLAM, k int, initialPort []int) (*KSwitch, error) {
	if k < 2 || d.Cards%k != 0 {
		return nil, fmt.Errorf("kswitch: %d cards not divisible into groups of %d", d.Cards, k)
	}
	b, err := newBase(d, initialPort)
	if err != nil {
		return nil, err
	}
	return &KSwitch{base: b, groupCards: k}, nil
}

// OnWake remaps the waking line within its switch so active lines pack
// toward the highest-numbered card of the group: prefer a port on a card
// that is already awake (highest such card), else the highest card whose
// port holds no active line. Displaced sleeping lines swap into the waking
// line's old port — a pure relay operation, invisible to both users.
func (s *KSwitch) OnWake(line int) {
	slot := s.d.SlotOf(s.portOf[line])
	group := s.d.CardOf(s.portOf[line]) / s.groupCards
	best := -1
	// First pass: awake cards with a non-active port at our slot. Candidate
	// ports are enumerated in place (highest card first) and card activity
	// read from the incremental occupancy counts, so a wake allocates
	// nothing.
	for i := s.groupCards - 1; i >= 0; i-- {
		card := group*s.groupCards + i
		p := card*s.d.PortsPerCard + slot
		if other := s.lineAt[p]; other != -1 && s.active[other] {
			continue
		}
		if s.cardActive[card] > 0 {
			best = p
			break
		}
		if best == -1 {
			best = p // fallback: highest-numbered card available
		}
	}
	if best != -1 {
		s.move(line, best)
	}
	s.setActive(line, true)
}

// OnSleep marks the line inactive; its position is kept (remaps happen at
// wake time only).
func (s *KSwitch) OnSleep(line int) { s.setActive(line, false) }

// FullSwitch can terminate any line on any port and repack all active
// lines onto a minimal prefix of cards with zero disruption — the paper's
// idealized Optimal upper bound (§4.1). After every wake or sleep the
// active lines fill ports [0, activeN), so card cd is awake iff
// cd < ⌈activeN/PortsPerCard⌉. Which line sits on which port changes no
// card's power state, so FullSwitch keeps only which lines are active and
// how many; internal/oracle restates the port-by-port repack and checks
// the card states against it.
type FullSwitch struct {
	portsPerCard int
	active       []bool
	activeN      int
}

// NewFullSwitch builds the idealized policy for a shelf d terminating the
// given number of lines, which must not exceed d's ports.
func NewFullSwitch(d dsl.DSLAM, lines int) (*FullSwitch, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if lines > d.Ports() {
		return nil, fmt.Errorf("kswitch: %d lines on a shelf of %d ports", lines, d.Ports())
	}
	return &FullSwitch{portsPerCard: d.PortsPerCard, active: make([]bool, lines)}, nil
}

// OnWake marks the line active.
func (f *FullSwitch) OnWake(line int) {
	if !f.active[line] {
		f.active[line] = true
		f.activeN++
	}
}

// OnSleep marks the line inactive.
func (f *FullSwitch) OnSleep(line int) {
	if f.active[line] {
		f.active[line] = false
		f.activeN--
	}
}

// CardAwake reports whether card cd is among the ⌈activeN/PortsPerCard⌉
// lowest-numbered cards the packed active lines occupy.
func (f *FullSwitch) CardAwake(cd int) bool { return cd < f.AwakeCardCount() }

// AwakeCardCount returns ⌈activeN/PortsPerCard⌉.
func (f *FullSwitch) AwakeCardCount() int {
	return (f.activeN + f.portsPerCard - 1) / f.portsPerCard
}

// SimulateSleepProbability estimates, by Monte Carlo, the probability that
// each card of a k-card group sleeps when every line is independently
// active with probability p and the k-switches pack ideally (the setting of
// Fig 5): m switches of size k, card ℓ sleeps iff every switch has at least
// ℓ+1... — in the paper's 1-based terms, card l sleeps iff at least l of
// the k lines of every switch are inactive.
func SimulateSleepProbability(k, m int, p float64, trials int, r *rand.Rand) []float64 {
	sleeps := make([]int, k)
	for trial := 0; trial < trials; trial++ {
		// minInactive = min over switches of inactive-line count.
		minInactive := k
		for s := 0; s < m; s++ {
			inactive := 0
			for i := 0; i < k; i++ {
				if r.Float64() >= p {
					inactive++
				}
			}
			if inactive < minInactive {
				minInactive = inactive
			}
		}
		// Cards 1..minInactive sleep (1-based l).
		for l := 1; l <= minInactive; l++ {
			sleeps[l-1]++
		}
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = float64(sleeps[i]) / float64(trials)
	}
	return out
}
