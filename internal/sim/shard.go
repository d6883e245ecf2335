package sim

import (
	"math"
	"sync"
)

// The sharded event engine. One simulation is partitioned by gateway into S
// independent lanes (see shard in state.go), each advanced by its own
// worker goroutine, with a coordinator lane carrying the events that need
// global order (metric ticks, failure events). Every lane reads the shared
// trace and skips the records of clients homed outside its gateway range:
// routing in a shard-local scheme is always the home gateway, so a record's
// entire effect lands on its home lane, which consumes exactly its own
// clients' records in trace (= time) order. The partition is exact, not
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

// buildLanes sets up the engine lanes: Shards lanes of consecutive gateway
// ranges plus the coordinator when the scheme is shard-local, the single
// serial lane [0, nGW) otherwise. allAwake seeds the active-gateway bitsets
// for schemes starting On.
func (s *sim) buildLanes(allAwake bool) {
	nGW := len(s.gws)
	n := min(s.cfg.Shards, nGW)
	// RandomWake draws every wake delay from one shared stream in global
	// event order; shard-local wakes would reorder the draws.
	if n < 2 || !catalogue[s.cfg.Scheme].shardLocal || s.cfg.RandomWake {
		n = 1
	}
	s.shards = make([]shard, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lo, sh.hi = i*nGW/n, (i+1)*nGW/n
		sh.bits = make([]uint64, (sh.hi-sh.lo+63)/64)
		if allAwake {
			for l := 0; l < sh.hi-sh.lo; l++ {
				sh.bits[l>>6] |= 1 << (uint(l) & 63)
			}
		}
	}
	s.main = &s.shards[0]
	if n > 1 {
		// The coordinator lane owns no gateways and consumes no trace
		// records; it carries only the globally-ordered events (ticks and
		// failure events).
		s.main = &s.co
		s.sinkIdx = make([]int, n)
		s.pool = newShardPool(s)
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
// event's time), ties broken by lane order. Each op updates every fabric's
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

// lineOp fires the ISP-side effects of gateway gw's line going active
// (wake) or idle at t. The main lane applies them inline; a shard lane
// queues them for the next barrier's replay (drainSinks).
func (s *sim) lineOp(sh *shard, gw int, wake bool, t float64) {
	if sh != s.main {
		sh.sinks = append(sh.sinks, sinkOp{t: t, gw: int32(gw), wake: wake})
		return
	}
	s.applyLineOp(gw, wake, t)
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
			if wake {
				fs.policy.OnWake(int(line))
			} else {
				fs.policy.OnSleep(int(line))
			}
		}
		s.updateCards(fs, t)
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
