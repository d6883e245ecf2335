package sim

import (
	"math"
	"sync"
)

// The sharded event engine. One simulation is partitioned by gateway into S
// independent lanes (see shard in state.go), each advanced by its own
// worker goroutine, with a coordinator lane carrying the events that need
// global order (metric ticks, failure events). The partition is exact, not
// approximate: results are byte-identical to the serial engine at every
// shard count, pinned by golden_test.go / shard_test.go.
//
// Why this is possible without rollback: the engine's cross-gateway state
// splits into two classes.
//
//   - Pure sinks: the kswitch policy and the line-card/shelf devices.
//     Nothing they compute feeds back into gateway, client or flow
//     dynamics, so shards queue their OnWake/OnSleep effects locally
//     (sinkOp) and the coordinator replays the merged queues in global
//     time order at each epoch barrier — the serial call sequence exactly.
//
//   - Real coupling: shared RNG streams (BH2 decisions, RandomWake) and
//     the coordinated schemes' global re-solves. These cannot be
//     partitioned without changing the serial event order, so only
//     shard-local schemes (the catalogue's shardLocal column) without
//     RandomWake run here; every other run takes the serial engine at any
//     shard count.
//
// Epoch barriers are the coordinator's own events: between two coordinator
// events every remaining event is provably shard-local, so each lane runs
// free until the fence time, then the barrier applies sink ops and the
// coordinator event. With the default 1 s metric tick the fence overhead is
// one pool rendezvous per simulated second.

// buildLanes sets up the engine lanes for the configured shard count:
// S shard lanes plus the coordinator when the scheme is shard-local, the
// single serial lane otherwise. allAwake seeds the active-gateway bitsets
// for schemes starting On.
func (s *sim) buildLanes(allAwake bool) {
	nGW := len(s.gws)
	n := s.cfg.Shards
	if n > nGW {
		n = nGW
	}
	// RandomWake draws every wake delay from one shared stream in global
	// event order; shard-local wakes would reorder the draws.
	if n < 2 || !catalogue[s.cfg.Scheme].shardLocal || s.cfg.RandomWake {
		s.shards = []shard{{lo: 0, hi: nGW, bits: make([]uint64, (nGW+63)/64)}}
		s.main = &s.shards[0]
		if allAwake {
			seedBits(&s.shards[0])
		}
		return
	}

	s.shards = make([]shard, n)
	s.gwShard = make([]int32, nGW)
	for i := 0; i < n; i++ {
		lo, hi := i*nGW/n, (i+1)*nGW/n
		s.shards[i] = shard{
			id: i, lo: lo, hi: hi,
			bits:       make([]uint64, (hi-lo+63)/64),
			deferSinks: true,
		}
		for g := lo; g < hi; g++ {
			s.gwShard[g] = int32(i)
		}
		if allAwake {
			seedBits(&s.shards[i])
		}
	}
	// The coordinator lane owns no gateways and no trace records — only
	// the globally-ordered event heap (ticks and failure events).
	s.co = shard{id: n, deferSinks: false}
	s.main = &s.co

	// Partition the trace streams by the client's home shard. Routing in
	// a shard-local scheme is always the home gateway, so a record's
	// entire effect lands on that shard. Trace order within a shard is
	// time order.
	// The orders start empty but non-nil: nil is the serial sentinel for
	// "consume the whole stream", and a shard that happens to receive no
	// records (quiet trace windows) must consume none, not all.
	tr := s.cfg.Trace
	for i := range s.shards {
		s.shards[i].flowOrder = []int32{}
		s.shards[i].keepOrder = []int32{}
	}
	for i, f := range tr.Flows {
		sh := &s.shards[s.gwShard[s.clients[f.Client].home]]
		sh.flowOrder = append(sh.flowOrder, int32(i))
	}
	for i, k := range tr.Keepalives {
		sh := &s.shards[s.gwShard[s.clients[k.Client].home]]
		sh.keepOrder = append(sh.keepOrder, int32(i))
	}
	s.sinkIdx = make([]int, n)
	s.pool = newShardPool(s)
}

func seedBits(sh *shard) {
	for g := sh.lo; g < sh.hi; g++ {
		sh.bits[(g-sh.lo)>>6] |= 1 << (uint(g-sh.lo) & 63)
	}
}

// runSharded drives a sharded run: epochs of parallel shard progress
// separated by coordinator events. Cancellation is checked once per epoch
// barrier — the natural rendezvous where every lane is quiescent.
func (s *sim) runSharded() {
	s.pool.start()
	defer s.pool.stop()
	for s.shardedStep() {
		if s.canceled() {
			s.aborted = true
			return
		}
	}
	s.now = s.end
}

// shardedStep runs one epoch: advance every shard lane up to the next
// coordinator event's time, replay the deferred sink ops, then fire the
// coordinator event. It returns false after the final epoch, which drains
// the shards to the end of the trace.
//
// Events at exactly the fence time follow the serial tie rule, enforced in
// stepLane: heap events pushed before the phase began beat the coordinator
// event (their serial seq is lower — the coordinator event was pushed while
// handling its predecessor), everything else waits for the next epoch.
func (s *sim) shardedStep() bool {
	if s.main.h.len() == 0 || s.main.h.ev[0].t > s.end {
		s.pool.run(poolCmd{kind: cmdPhase, t: math.Inf(1)})
		s.drainSinks()
		return false
	}
	tF := s.main.h.ev[0].t
	s.pool.run(poolCmd{kind: cmdPhase, t: tF})
	s.drainSinks()
	e := s.main.h.pop()
	s.main.now = e.t
	s.now = e.t
	s.handle(s.main, e)
	return true
}

// drainSinks replays the shards' deferred switch-fabric ops in global time
// order: a k-way merge over the per-shard queues by head-op time (each
// queue is already time-ordered — ops are stamped with the generating
// event's time), ties broken by shard id. Each op updates every fabric's
// policy and reconciles its line cards exactly as the serial engine does
// inline, so policy state and card energy integration are bit-identical.
func (s *sim) drainSinks() {
	idx := s.sinkIdx
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bt float64
		for si := range s.shards {
			q := s.shards[si].sinks
			if idx[si] >= len(q) {
				continue
			}
			if t := q[idx[si]].t; best == -1 || t < bt {
				best, bt = si, t
			}
		}
		if best == -1 {
			break
		}
		op := s.shards[best].sinks[idx[best]]
		idx[best]++
		s.applyLineOp(int(op.gw), op.wake, op.t)
	}
	for si := range s.shards {
		s.shards[si].sinks = s.shards[si].sinks[:0]
	}
}

// lineWake fires the ISP-side effects of a line going active: immediately
// on single-lane runs, deferred to the next barrier on shard lanes.
func (s *sim) lineWake(sh *shard, gw int, t float64) {
	if sh.deferSinks {
		sh.sinks = append(sh.sinks, sinkOp{t: t, gw: int32(gw), wake: true})
		return
	}
	s.applyLineOp(gw, true, t)
}

// lineSleep is the inactive counterpart of lineWake.
func (s *sim) lineSleep(sh *shard, gw int, t float64) {
	if sh.deferSinks {
		sh.sinks = append(sh.sinks, sinkOp{t: t, gw: int32(gw), wake: false})
		return
	}
	s.applyLineOp(gw, false, t)
}

// applyLineOp applies one gateway's line wake/sleep to every switch
// fabric of the run and reconciles each fabric's line cards. The op fans
// out over every full-scenario line the gateway stands for (its own line
// alone in a full run) — the mirrored lines transition at the same
// instant, and the fabrics the collapse pass admits (fixed, full-switch)
// derive card states from the active-line set alone, so one card
// reconciliation after the batch reproduces the full run's card energy
// exactly (same-instant transients integrate to zero).
func (s *sim) applyLineOp(gw int, wake bool, t float64) {
	lines := s.mirrorOf(gw)
	for i := range s.fabrics {
		fs := &s.fabrics[i]
		for _, line := range lines {
			fs.lineOp(int(line), wake)
		}
		s.updateCards(fs, t)
	}
}

// lineOp tells the fabric's switch policy that a line went active or idle.
func (fs *fabricState) lineOp(line int, wake bool) {
	if wake {
		fs.policy.OnWake(line)
	} else {
		fs.policy.OnSleep(line)
	}
}

// ---- worker pool ----

// shardPool owns the persistent worker goroutines, one per shard lane:
// worker i advances s.shards[i]. Workers idle on their command channel
// between epochs; commands are plain values and the rendezvous is
// WaitGroup-based, so a steady-state epoch allocates nothing.
type shardPool struct {
	s    *sim
	cmds []chan poolCmd
	wg   sync.WaitGroup
}

type poolCmd struct {
	kind uint8
	t    float64
}

const (
	cmdPhase uint8 = iota + 1 // advance the lane to t (exclusive fence)
	cmdPrep                   // tick prep of the lane at time t
)

func newShardPool(s *sim) *shardPool {
	return &shardPool{s: s, cmds: make([]chan poolCmd, len(s.shards))}
}

func (p *shardPool) start() {
	for i := range p.cmds {
		p.cmds[i] = make(chan poolCmd, 1)
		go p.worker(i)
	}
}

func (p *shardPool) stop() {
	for _, c := range p.cmds {
		close(c)
	}
}

// run executes one command on every worker and waits for all of them —
// the epoch barrier. The channel send/receive pairs order each worker's
// writes before the coordinator's reads and vice versa.
func (p *shardPool) run(cmd poolCmd) {
	p.wg.Add(len(p.cmds))
	for _, c := range p.cmds {
		c <- cmd
	}
	p.wg.Wait()
}

func (p *shardPool) worker(i int) {
	sh := &p.s.shards[i]
	for cmd := range p.cmds[i] {
		switch cmd.kind {
		case cmdPhase:
			sh.fenceSeq = sh.seq
			for p.s.stepLane(sh, cmd.t) {
			}
		case cmdPrep:
			p.s.tickPrep(sh, cmd.t)
		}
		p.wg.Done()
	}
}
