package sim

import (
	"math"
	"testing"

	"insomnia/internal/trace"
)

// TestTickSteadyStateAllocs pins the tentpole's zero-allocation contract on
// the sampling path: once estimator rings and series buffers have reached
// steady-state capacity, a tick() sample allocates nothing.
func TestTickSteadyStateAllocs(t *testing.T) {
	// NoSleep keeps every gateway in the active set, so the tick loop runs
	// its full per-gateway body (controller advance, elapse, estimator
	// observation, power sampling) — the worst case for allocations.
	s := handSim(t, NoSleep, nil, nil)
	for i := 0; i < 300; i++ {
		s.now += 1
		s.tick()
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.now += 1
		s.tick()
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates %.1f times per sample, want 0", allocs)
	}
}

// TestEventLoopSteadyStateAllocs drives the full event loop (heap pops and
// pushes included) over a keepalive-heavy SoI scenario and requires the
// steady-state event processing to allocate nothing beyond warm-up growth.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	var keeps []trace.Packet
	for ts := 10.0; ts < 3900; ts += 5 {
		keeps = append(keeps, trace.Packet{T: ts, Client: int32(int(ts) % 4), Bytes: 100})
	}
	s := handSim(t, SoI, nil, keeps)
	// Warm up: process the first half of the trace.
	for i := 0; i < 400; i++ {
		if !s.stepLane(s.main, math.Inf(1)) {
			t.Fatal("trace exhausted during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.stepLane(s.main, math.Inf(1))
	})
	// Ticks observing newly-woken estimators may still grow a ring once in
	// a while; the budget is "indistinguishable from zero per event".
	if allocs > 0.1 {
		t.Fatalf("steady-state event processing allocates %.2f times per event, want ~0", allocs)
	}
}

// TestBH2ViewsAllocateNothing pins BH²'s decision input to one scratch
// slice per run: once it has grown to a terminal's in-range set,
// assembling what the terminal observes allocates nothing.
func TestBH2ViewsAllocateNothing(t *testing.T) {
	s := handSim(t, BH2KSwitch, nil, nil)
	for i := 0; i < 30; i++ {
		s.now += 1
		s.tick()
	}
	var sc bh2Scheme
	sc.views(s, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if v := sc.views(s, 1); len(v) != len(s.cfg.Topo.InRange(1)) {
			t.Fatalf("views of terminal 1: %d entries, want %d", len(v), len(s.cfg.Topo.InRange(1)))
		}
	})
	if allocs != 0 {
		t.Fatalf("views allocates %.1f times per decision, want 0", allocs)
	}
}
