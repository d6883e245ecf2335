package oracle

import (
	"fmt"
	"sort"

	"insomnia/internal/dsl"
	"insomnia/internal/power"
	"insomnia/internal/sim"
)

// fabric.go replays the merged per-gateway line-op streams through a
// straight-line re-statement of the switch policies (internal/kswitch)
// and the engine's card reconciliation, producing the card and shelf
// contributions of the reference result. The fabric is a pure sink — the
// gateways never read it — which is what makes the two-pass structure
// (interpret gateways, then replay the shelf) exact.

type fabricKind int

const (
	fabFixed fabricKind = iota
	fabKSwitch
	fabFullSwitch
)

// refFabric re-states the kswitch bookkeeping: line→port wiring,
// per-card occupancy, and the per-policy remap rule.
type refFabric struct {
	d          dsl.DSLAM
	kind       fabricKind
	k          int   // cards per switch group (k-switch only)
	portOf     []int // line -> port
	lineAt     []int // port -> line, -1 when unwired
	active     []bool
	activeN    int
	cardActive []int // per card: active lines terminating on it
}

func newRefFabric(d dsl.DSLAM, kind fabricKind, k int, initialPort []int) (*refFabric, error) {
	if kind == fabKSwitch && (k < 2 || d.Cards%k != 0) {
		return nil, fmt.Errorf("oracle: %d cards not divisible into groups of %d", d.Cards, k)
	}
	f := &refFabric{
		d: d, kind: kind, k: k,
		portOf:     append([]int(nil), initialPort...),
		lineAt:     make([]int, d.Ports()),
		active:     make([]bool, len(initialPort)),
		cardActive: make([]int, d.Cards),
	}
	for p := range f.lineAt {
		f.lineAt[p] = -1
	}
	for line, p := range f.portOf {
		if p < 0 || p >= d.Ports() {
			return nil, fmt.Errorf("oracle: line %d on invalid port %d", line, p)
		}
		if f.lineAt[p] != -1 {
			return nil, fmt.Errorf("oracle: port %d terminates two lines", p)
		}
		f.lineAt[p] = line
	}
	return f, nil
}

func (f *refFabric) setActive(line int, v bool) {
	if f.active[line] == v {
		return
	}
	f.active[line] = v
	cd := f.d.CardOf(f.portOf[line])
	if v {
		f.activeN++
		f.cardActive[cd]++
	} else {
		f.activeN--
		f.cardActive[cd]--
	}
}

// move re-terminates line onto port dst, swapping with whatever inactive
// line is wired there.
func (f *refFabric) move(line, dst int) {
	src := f.portOf[line]
	if src == dst {
		return
	}
	other := f.lineAt[dst]
	if other != -1 {
		if f.active[other] {
			panic(fmt.Sprintf("oracle: displacing active line %d", other))
		}
		f.portOf[other] = src
	}
	f.lineAt[src] = other
	f.portOf[line] = dst
	f.lineAt[dst] = line
	if f.active[line] {
		sc, dc := f.d.CardOf(src), f.d.CardOf(dst)
		if sc != dc {
			f.cardActive[sc]--
			f.cardActive[dc]++
		}
	}
}

// onWake applies the per-policy wake rule: fixed keeps the wiring;
// k-switch remaps within the line's switch toward the highest-numbered
// card that is already awake (else the highest available), displacing
// only sleeping lines; full switch packs every active line onto the
// lowest-numbered ports.
func (f *refFabric) onWake(line int) {
	switch f.kind {
	case fabFixed:
		f.setActive(line, true)
	case fabKSwitch:
		slot := f.d.SlotOf(f.portOf[line])
		group := f.d.CardOf(f.portOf[line]) / f.k
		best := -1
		for i := f.k - 1; i >= 0; i-- {
			card := group*f.k + i
			p := card*f.d.PortsPerCard + slot
			if other := f.lineAt[p]; other != -1 && f.active[other] {
				continue
			}
			if f.cardActive[card] > 0 {
				best = p
				break
			}
			if best == -1 {
				best = p
			}
		}
		if best != -1 {
			f.move(line, best)
		}
		f.setActive(line, true)
	case fabFullSwitch:
		f.setActive(line, true)
		f.repack()
	}
}

func (f *refFabric) onSleep(line int) {
	f.setActive(line, false)
	if f.kind == fabFullSwitch {
		f.repack()
	}
}

// repack moves every active line onto the lowest-numbered ports (full
// switch only): lines already inside the target prefix stay put, the rest
// move in ascending line order onto ascending free ports.
func (f *refFabric) repack() {
	var movers []int
	n := f.activeN
	taken := make([]bool, n)
	for line := range f.portOf {
		if !f.active[line] {
			continue
		}
		if p := f.portOf[line]; p < n {
			taken[p] = true
		} else {
			movers = append(movers, line)
		}
	}
	next := 0
	for _, line := range movers {
		for taken[next] {
			next++
		}
		f.move(line, next)
		taken[next] = true
	}
}

// replayCards runs the merged line-op stream through the fabric and the
// engine's card reconciliation, returning the card devices at their final
// pre-horizon state. Same-time ops of different gateways replay in
// ascending gateway id (the measure-zero tie convention); a single
// gateway's ops are already time-ordered.
//
// sleepCards mirrors the scheme's flag: no-sleep pins every card On from
// t=0 regardless of fabric state, so reconciliation is skipped and the
// initial state stands for the whole horizon.
func replayCards(cfg *sim.Config, kind fabricKind, sleepCards bool, initial power.State, ops []lineOp) ([]*refDevice, error) {
	// The engine wires the shelf's lines the same way, under the run's seed.
	ports, err := dsl.RandomAssignment(cfg.DSLAM, cfg.Topo.NumGateways, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fab, err := newRefFabric(cfg.DSLAM, kind, cfg.K, ports)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].t != ops[j].t {
			return ops[i].t < ops[j].t
		}
		return ops[i].gw < ops[j].gw
	})
	cards := make([]*refDevice, cfg.DSLAM.Cards)
	cardOn := make([]bool, cfg.DSLAM.Cards)
	for cd := range cards {
		cards[cd] = newRefDevice(power.LineCardWatts, initial)
		cardOn[cd] = initial == power.On
	}
	for _, op := range ops {
		if op.wake {
			fab.onWake(op.gw)
		} else {
			fab.onSleep(op.gw)
		}
		if !sleepCards {
			continue
		}
		for cd := range cards {
			awake := fab.cardActive[cd] > 0
			if awake != cardOn[cd] {
				st := power.Sleeping
				if awake {
					st = power.On
				}
				cards[cd].setState(op.t, st)
				cardOn[cd] = awake
			}
		}
	}
	return cards, nil
}
