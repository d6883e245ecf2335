package kswitch

import (
	"math"
	"testing"
	"testing/quick"

	"insomnia/internal/analytic"
	"insomnia/internal/dsl"
	"insomnia/internal/stats"
)

func seqPorts(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// awakeCards lists each card's CardAwake.
func awakeCards(p Policy, cards int) []bool {
	out := make([]bool, cards)
	for cd := range out {
		out[cd] = p.CardAwake(cd)
	}
	return out
}

// countTrue counts true entries: awake cards or active lines.
func countTrue(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}

func TestFixedPolicy(t *testing.T) {
	d := dsl.EvalDSLAM
	f, err := NewFixed(d, seqPorts(48))
	if err != nil {
		t.Fatal(err)
	}
	f.OnWake(0)
	f.OnWake(13) // card 1
	if f.portOf[0] != 0 || f.portOf[13] != 13 {
		t.Error("fixed policy moved a line")
	}
	cards := awakeCards(f, d.Cards)
	if !cards[0] || !cards[1] || cards[2] || cards[3] {
		t.Errorf("cards awake = %v", cards)
	}
	if f.AwakeCardCount() != 2 {
		t.Errorf("awake count = %d", f.AwakeCardCount())
	}
	f.OnSleep(0)
	if countTrue(awakeCards(f, d.Cards)) != 1 || f.AwakeCardCount() != 1 {
		t.Error("sleep not registered")
	}
	if n := countTrue(f.active); n != 1 {
		t.Errorf("active lines = %d", n)
	}
}

func TestNewBaseRejectsBadWiring(t *testing.T) {
	d := dsl.EvalDSLAM
	if _, err := NewFixed(d, []int{0, 0}); err == nil {
		t.Error("duplicate port accepted")
	}
	if _, err := NewFixed(d, []int{99}); err == nil {
		t.Error("out-of-range port accepted")
	}
	if _, err := NewFixed(dsl.DSLAM{Cards: 0, PortsPerCard: 3}, nil); err == nil {
		t.Error("invalid DSLAM accepted")
	}
	if _, err := NewFullSwitch(dsl.DSLAM{Cards: 0, PortsPerCard: 3}, 0); err == nil {
		t.Error("full switch accepted an invalid DSLAM")
	}
	if _, err := NewFullSwitch(d, d.Ports()+1); err == nil {
		t.Error("full switch accepted more lines than ports")
	}
	if _, err := NewFullSwitch(d, d.Ports()); err != nil {
		t.Errorf("full switch rejected a full shelf: %v", err)
	}
}

func TestKSwitchPacksActiveLines(t *testing.T) {
	// 4 cards of 12, one group of k=4: 12 4-switches — the §5.1 scenario.
	d := dsl.EvalDSLAM
	s, err := NewKSwitch(d, 4, seqPorts(48))
	if err != nil {
		t.Fatal(err)
	}
	if s.groupCards != 4 {
		t.Fatalf("K = %d", s.groupCards)
	}
	// Wake 12 lines on 12 distinct switches (slots 0..11 of card 0).
	for line := 0; line < 12; line++ {
		s.OnWake(line)
	}
	// All 12 should pack onto one card.
	if got := countTrue(awakeCards(s, d.Cards)); got != 1 {
		t.Fatalf("awake cards = %d, want 1", got)
	}
	// Packing direction: the highest-numbered card of the group.
	for line := 0; line < 12; line++ {
		if c := d.CardOf(s.portOf[line]); c != 3 {
			t.Fatalf("line %d on card %d, want 3", line, c)
		}
	}
	// Wake 12 more on the same switches: they need a second card.
	for line := 12; line < 24; line++ {
		s.OnWake(line)
	}
	if got := countTrue(awakeCards(s, d.Cards)); got != 2 {
		t.Fatalf("awake cards = %d, want 2", got)
	}
}

func TestKSwitchOnlyRemapsAtWake(t *testing.T) {
	d := dsl.EvalDSLAM
	s, err := NewKSwitch(d, 4, seqPorts(48))
	if err != nil {
		t.Fatal(err)
	}
	s.OnWake(0)
	p := s.portOf[0]
	s.OnWake(12) // same switch (slot 0), packs next to it
	s.OnSleep(0)
	if s.portOf[0] != p {
		t.Error("OnSleep moved a line")
	}
}

func TestKSwitchNeverDisplacesActive(t *testing.T) {
	d := dsl.DSLAM{Cards: 2, PortsPerCard: 1} // one 2-switch, two lines
	s, err := NewKSwitch(d, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s.OnWake(0) // moves to card 1 (port 1), displacing sleeping line 1 to port 0
	if s.portOf[0] != 1 || s.portOf[1] != 0 {
		t.Fatalf("ports: line0=%d line1=%d", s.portOf[0], s.portOf[1])
	}
	s.OnWake(1) // must stay at port 0; port 1 is active
	if s.portOf[1] != 0 {
		t.Fatalf("active line displaced: line1 at %d", s.portOf[1])
	}
	if countTrue(awakeCards(s, d.Cards)) != 2 {
		t.Error("both cards should be awake")
	}
}

func TestKSwitchGroupValidation(t *testing.T) {
	if _, err := NewKSwitch(dsl.DSLAM{Cards: 4, PortsPerCard: 12}, 3, seqPorts(48)); err == nil {
		t.Error("4 cards not divisible by 3; expected error")
	}
	if _, err := NewKSwitch(dsl.EvalDSLAM, 1, seqPorts(48)); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestKSwitchMultipleGroups(t *testing.T) {
	// 8 cards in 2 groups of 4: lines cannot cross groups.
	d := dsl.DSLAM{Cards: 8, PortsPerCard: 4}
	s, err := NewKSwitch(d, 4, seqPorts(32))
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 is on card 0 (group 0); after wake it must stay within cards 0-3.
	s.OnWake(0)
	if c := d.CardOf(s.portOf[0]); c > 3 {
		t.Errorf("line 0 escaped its group: card %d", c)
	}
	// Line 31 is on card 7 (group 1): stays within cards 4-7.
	s.OnWake(31)
	if c := d.CardOf(s.portOf[31]); c < 4 {
		t.Errorf("line 31 escaped its group: card %d", c)
	}
}

func TestFullSwitchPacksMinimally(t *testing.T) {
	d := dsl.EvalDSLAM
	f, err := NewFullSwitch(d, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Wake 13 scattered lines: ceil(13/12) = 2 cards.
	for _, line := range []int{0, 3, 7, 13, 18, 22, 25, 29, 33, 37, 41, 45, 47} {
		f.OnWake(line)
	}
	if got := countTrue(awakeCards(f, d.Cards)); got != 2 {
		t.Fatalf("awake cards = %d, want 2", got)
	}
	// Sleep one: 12 active -> 1 card.
	f.OnSleep(47)
	if got := countTrue(awakeCards(f, d.Cards)); got != 1 {
		t.Fatalf("awake cards = %d, want 1", got)
	}
}

// One line wake/sleep pair allocates nothing under any policy: the engine
// applies one per gateway transition per fabric.
func TestPolicyLineOpsDoNotAllocate(t *testing.T) {
	d := dsl.EvalDSLAM
	fixed, err := NewFixed(d, seqPorts(48))
	if err != nil {
		t.Fatal(err)
	}
	ks, err := NewKSwitch(d, 4, seqPorts(48))
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewFullSwitch(d, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{fixed, ks, full} {
		for line := 0; line < 48; line += 3 {
			pol.OnWake(line)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			pol.OnWake(1)
			pol.OnSleep(1)
		}); allocs != 0 {
			t.Errorf("%T: %v allocs per wake+sleep, want 0", pol, allocs)
		}
	}
}

// Property: under any wake/sleep sequence, checked after every operation
// against the test's own active set: Fixed and KSwitch keep the
// line<->port mapping a bijection, their awake cards are exactly the cards
// an active line terminates on, and KSwitch keeps lines within their
// switch's slot; FullSwitch's awake cards are exactly the prefix
// [0, ceil(active/PortsPerCard)). The 5x7 shelf carries 33 lines, so the
// active lines do not always fill whole cards and some ports stay unwired.
func TestPolicyInvariantsProperty(t *testing.T) {
	odd := dsl.DSLAM{Cards: 5, PortsPerCard: 7}
	oddPorts, err := dsl.RandomAssignment(odd, 33, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		d       dsl.DSLAM
		k       int
		initial []int
	}{
		{dsl.EvalDSLAM, 4, seqPorts(48)},
		{odd, 5, oddPorts},
	} {
		d, lines := tc.d, len(tc.initial)
		f := func(ops []uint16) bool {
			fixed, err1 := NewFixed(d, tc.initial)
			ks, err2 := NewKSwitch(d, tc.k, tc.initial)
			full, err3 := NewFullSwitch(d, lines)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatal(err1, err2, err3)
			}
			active := make([]bool, lines)
			for _, op := range ops {
				line := int(op&0x7fff) % lines
				wake := op&0x8000 == 0
				active[line] = wake
				for _, pol := range []Policy{fixed, ks, full} {
					if wake {
						pol.OnWake(line)
					} else {
						pol.OnSleep(line)
					}
				}
				for _, b := range []*base{fixed.base, ks.base} {
					if !portCardsMatch(b, active) {
						return false
					}
				}
				// KSwitch slot preservation: a line wired to slot s stays at slot s.
				for l := range active {
					if d.SlotOf(ks.portOf[l]) != d.SlotOf(tc.initial[l]) {
						return false
					}
				}
				n := countTrue(active)
				want := (n + d.PortsPerCard - 1) / d.PortsPerCard
				if full.activeN != n || full.AwakeCardCount() != want {
					return false
				}
				for cd := 0; cd < d.Cards; cd++ {
					if full.CardAwake(cd) != (cd < want) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%dx%d shelf: %v", d.Cards, d.PortsPerCard, err)
		}
	}
}

// portCardsMatch reports whether b wires every line to its own valid port
// (lineAt inverts portOf, so no two lines share one) and wakes exactly the
// cards an active line terminates on.
func portCardsMatch(b *base, active []bool) bool {
	want := make([]bool, b.d.Cards)
	for line, p := range b.portOf {
		if p < 0 || p >= b.d.Ports() || b.lineAt[p] != line {
			return false
		}
		if active[line] {
			want[b.d.CardOf(p)] = true
		}
	}
	for cd, w := range want {
		if b.CardAwake(cd) != w {
			return false
		}
	}
	return b.AwakeCardCount() == countTrue(want)
}

// Monte Carlo packing matches Eq (2) (Fig 5's middle/right panels).
func TestSimulationMatchesEq2(t *testing.T) {
	r := stats.NewRNG(5, 0)
	for _, p := range []float64{0.25, 0.5} {
		for _, k := range []int{2, 4, 8} {
			got := SimulateSleepProbability(k, 24, p, 20000, r)
			for l := 1; l <= k; l++ {
				want, err := analytic.CardSleepProbability(l, k, 24, p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got[l-1]-want) > 0.02 {
					t.Errorf("k=%d p=%v l=%d: sim %.4f vs Eq2 %.4f", k, p, l, got[l-1], want)
				}
			}
		}
	}
}

// The KSwitch policy converges to the ideal packing when lines wake one at
// a time from all-asleep (no stale placements) — it must match the
// simulated ideal for that arrival pattern.
func TestKSwitchMatchesIdealPackingFreshWakes(t *testing.T) {
	d := dsl.DSLAM{Cards: 4, PortsPerCard: 12}
	r := stats.NewRNG(11, 0)
	for trial := 0; trial < 200; trial++ {
		s, err := NewKSwitch(d, 4, seqPorts(48))
		if err != nil {
			t.Fatal(err)
		}
		// Wake a random subset in random order.
		perm := r.Perm(48)
		n := r.Intn(49)
		// Count per-switch actives to compute the ideal card count.
		perSwitch := make([]int, 12)
		for _, line := range perm[:n] {
			s.OnWake(line)
			perSwitch[d.SlotOf(seqPorts(48)[line])]++
		}
		maxPerSwitch := 0
		for _, c := range perSwitch {
			if c > maxPerSwitch {
				maxPerSwitch = c
			}
		}
		if got := countTrue(awakeCards(s, d.Cards)); got != maxPerSwitch {
			t.Fatalf("trial %d: awake cards %d, ideal %d", trial, got, maxPerSwitch)
		}
	}
}
