package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insomnia/internal/sim"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// scenario builds a reduced shared fixture: one trace and one topology
// referenced read-only by every job in these tests.
func scenario(t *testing.T, seed int64) (*trace.Trace, *topology.Topology) {
	t.Helper()
	var busy trace.Profile
	for i := range busy {
		busy[i] = 0.55
	}
	tr, err := trace.Generate(trace.Config{
		Clients: 48, APs: 8, Profile: busy, Seed: seed, Duration: 2 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.OverlapGraph(8, 5.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tp
}

// schemeJobs builds one job per scheme over the base config's shared
// fixtures.
func schemeJobs(base sim.Config, schemes ...sim.Scheme) []Job {
	jobs := make([]Job, len(schemes))
	for i, sc := range schemes {
		cfg := base
		cfg.Scheme = sc
		jobs[i] = Job{Name: sc.String(), Config: cfg}
	}
	return jobs
}

// sameResult asserts the metrics the figures consume are identical: energy
// joules, the full FCT vector, and the wakeup/move/resolve counters.
func sameResult(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	if a.Energy != b.Energy {
		t.Errorf("%s: energy differs: %+v vs %+v", label, a.Energy, b.Energy)
	}
	if a.Wakeups != b.Wakeups || a.Moves != b.Moves || a.Resolves != b.Resolves {
		t.Errorf("%s: counters differ: wake %d/%d moves %d/%d resolves %d/%d",
			label, a.Wakeups, b.Wakeups, a.Moves, b.Moves, a.Resolves, b.Resolves)
	}
	if len(a.FCT) != len(b.FCT) {
		t.Fatalf("%s: FCT length %d vs %d", label, len(a.FCT), len(b.FCT))
	}
	for i := range a.FCT {
		af, bf := a.FCT[i], b.FCT[i]
		if math.IsNaN(af) != math.IsNaN(bf) || (!math.IsNaN(af) && af != bf) {
			t.Fatalf("%s: FCT[%d] differs: %v vs %v", label, i, af, bf)
		}
	}
}

func TestSameConfigTwiceIsDeterministic(t *testing.T) {
	tr, tp := scenario(t, 21)
	cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, Seed: 21, K: 2}
	outs := Run(context.Background(), []Job{{Name: "a", Config: cfg}, {Name: "b", Config: cfg}})
	if err := FirstErr(outs); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "same config twice", outs[0].Result, outs[1].Result)
}

func TestWorkerCountInvariance(t *testing.T) {
	tr, tp := scenario(t, 22)
	base := sim.Config{Trace: tr, Topo: tp, Seed: 22, K: 2}
	jobs := schemeJobs(base,
		sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch,
		sim.BH2NoBackup, sim.Optimal, sim.Centralized,
	)
	serial := Runner{Workers: 1}.Run(context.Background(), jobs)
	if err := FirstErr(serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		parallel := Runner{Workers: workers}.Run(context.Background(), jobs)
		if err := FirstErr(parallel); err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if parallel[i].Job.Name != jobs[i].Name {
				t.Fatalf("workers=%d: outcome %d is %q, want %q (order lost)",
					workers, i, parallel[i].Job.Name, jobs[i].Name)
			}
			sameResult(t, jobs[i].Name, serial[i].Result, parallel[i].Result)
		}
	}
}

func TestErrorsAreIsolated(t *testing.T) {
	tr, tp := scenario(t, 23)
	good := sim.Config{Trace: tr, Topo: tp, Scheme: sim.SoI, Seed: 23, K: 2}
	outs := Run(context.Background(), []Job{
		{Name: "good-1", Config: good},
		{Name: "bad", Config: sim.Config{}}, // no trace/topology: must fail
		{Name: "good-2", Config: good},
	})
	if outs[0].Err != nil || outs[0].Result == nil {
		t.Errorf("good-1 failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Error("bad job produced no error")
	}
	if outs[2].Err != nil || outs[2].Result == nil {
		t.Errorf("good-2 failed: %v", outs[2].Err)
	}
	if err := FirstErr(outs); err == nil {
		t.Error("FirstErr missed the failed job")
	}
	sameResult(t, "jobs around a failure", outs[0].Result, outs[2].Result)
}

func TestEmptyAndDefaultPool(t *testing.T) {
	if outs := Run(context.Background(), nil); len(outs) != 0 {
		t.Fatalf("empty campaign produced %d outcomes", len(outs))
	}
	// Workers beyond the job count must not deadlock or drop jobs.
	tr, tp := scenario(t, 24)
	outs := Runner{Workers: 64}.Run(context.Background(), []Job{{
		Name: "solo", Config: sim.Config{Trace: tr, Topo: tp, Scheme: sim.SoI, Seed: 24, K: 2},
	}})
	if err := FirstErr(outs); err != nil {
		t.Fatal(err)
	}
}

// TestSeedsDiffer: jobs that differ only in their seed explore different
// randomness over the same shared fixtures.
func TestSeedsDiffer(t *testing.T) {
	tr, tp := scenario(t, 25)
	cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, K: 2, Seed: 1}
	other := cfg
	other.Seed = 2
	outs := Run(context.Background(), []Job{{Name: "seed1", Config: cfg}, {Name: "seed2", Config: other}})
	if err := FirstErr(outs); err != nil {
		t.Fatal(err)
	}
	if outs[0].Result.Energy == outs[1].Result.Energy {
		t.Error("seed sweep produced identical energy for different seeds")
	}
}

// TestPanicRecovery pins the fault-tolerance contract: a panic inside a
// job becomes an Outcome error carrying the panic value, the worker pool
// survives, and jobs around the panic still produce results.
func TestPanicRecovery(t *testing.T) {
	tr, tp := scenario(t, 26)
	good := sim.Config{Trace: tr, Topo: tp, Scheme: sim.SoI, Seed: 26, K: 2}
	boom := good
	boom.Seed = -777 // marker the injected exec panics on
	r := Runner{Workers: 3, Exec: func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == -777 {
			panic("injected cell failure")
		}
		return sim.Run(cfg)
	}}
	outs := r.Run(context.Background(), []Job{
		{Name: "good-1", Config: good},
		{Name: "boom", Config: boom},
		{Name: "good-2", Config: good},
	})
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("jobs around the panic failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil || outs[1].Result != nil {
		t.Fatalf("panicked job must carry an error and no result, got %v", outs[1])
	}
	msg := outs[1].Err.Error()
	for _, want := range []string{"boom", "panic", "injected cell failure"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic error %q does not mention %q", msg, want)
		}
	}
	sameResult(t, "jobs around a panic", outs[0].Result, outs[2].Result)
}

// TestPanicDeterminismAcrossWorkers: with a panicking cell in the mix,
// 1 worker and N workers must still agree on which jobs failed and on
// every successful result.
func TestPanicDeterminismAcrossWorkers(t *testing.T) {
	tr, tp := scenario(t, 27)
	exec := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Scheme == sim.Optimal {
			panic("optimal is poisoned in this test")
		}
		return sim.Run(cfg)
	}
	base := sim.Config{Trace: tr, Topo: tp, Seed: 27, K: 2}
	jobs := schemeJobs(base, sim.NoSleep, sim.SoI, sim.Optimal, sim.BH2KSwitch, sim.Centralized)
	serial := Runner{Workers: 1, Exec: exec}.Run(context.Background(), jobs)
	for _, workers := range []int{2, 4} {
		parallel := Runner{Workers: workers, Exec: exec}.Run(context.Background(), jobs)
		for i := range jobs {
			if (serial[i].Err != nil) != (parallel[i].Err != nil) {
				t.Fatalf("workers=%d: job %q error mismatch: %v vs %v",
					workers, jobs[i].Name, serial[i].Err, parallel[i].Err)
			}
			if serial[i].Err != nil {
				// Stacks differ across goroutines; the first line (panic
				// value and job name) is the deterministic part.
				sf := strings.SplitN(serial[i].Err.Error(), "\n", 2)[0]
				pf := strings.SplitN(parallel[i].Err.Error(), "\n", 2)[0]
				if sf != pf {
					t.Fatalf("workers=%d: job %q error first line %q vs %q", workers, jobs[i].Name, sf, pf)
				}
				continue
			}
			sameResult(t, jobs[i].Name, serial[i].Result, parallel[i].Result)
		}
	}
}

func TestRunStreamDeliversInJobOrder(t *testing.T) {
	tr, tp := scenario(t, 33)
	var jobs []Job
	for _, sc := range []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch, sim.SoI, sim.NoSleep} {
		jobs = append(jobs, Job{Name: sc.String(), Config: sim.Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 33, K: 2}})
	}
	var emitted []int
	outs := make([]Outcome, len(jobs))
	for d := range (Runner{Workers: 4}).RunStream(context.Background(), jobs) {
		if d.Err != nil {
			t.Errorf("job %d failed: %v", d.Index, d.Err)
		}
		if d.Job.Name != jobs[d.Index].Name {
			t.Errorf("delivery %d carries job %q, want %q", d.Index, d.Job.Name, jobs[d.Index].Name)
		}
		emitted = append(emitted, d.Index)
		outs[d.Index] = d.Outcome
	}
	if err := FirstErr(outs); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(jobs) {
		t.Fatalf("delivered %d outcomes, want %d", len(emitted), len(jobs))
	}
	for i, e := range emitted {
		if e != i {
			t.Fatalf("delivery order %v is not job order", emitted)
		}
	}
	// Streamed outcomes match a plain serial run.
	serial := (Runner{Workers: 1}).Run(context.Background(), jobs)
	for i := range jobs {
		sameResult(t, jobs[i].Name, serial[i].Result, outs[i].Result)
	}
}

// TestRunStreamReleasesDeliveredResults: once an outcome is delivered the
// stream holds no reference to its Result, so a consumer that reduces and
// drops each one keeps only the cells in flight alive. The last job blocks
// until the test ends, which keeps the stream open while the collector
// looks for the delivered results.
func TestRunStreamReleasesDeliveredResults(t *testing.T) {
	const n = 6
	var finalized atomic.Int64
	release := make(chan struct{})
	exec := func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Seed == n-1 {
			<-release
		}
		res := &sim.Result{FCT: make([]float64, 1024)}
		runtime.SetFinalizer(res, func(*sim.Result) { finalized.Add(1) })
		return res, nil
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprint(i), Config: sim.Config{Seed: int64(i)}}
	}
	stream := Runner{Workers: 2, Exec: exec}.RunStream(context.Background(), jobs)
	defer func() {
		close(release)
		for range stream {
		}
	}()
	for i := 0; i < n-1; i++ {
		if d := <-stream; d.Index != i || d.Err != nil {
			t.Fatalf("delivery %d: index %d, err %v", i, d.Index, d.Err)
		}
	}
	for try := 0; try < 100 && finalized.Load() < n-1; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != n-1 {
		t.Fatalf("%d of %d delivered results were collected: the stream still holds the rest", got, n-1)
	}
}

// TestCancelClosesStreamAndFreesBudget pins the cancellation contract:
// canceling mid-run closes the delivery channel after an in-order prefix,
// aborts in-flight simulations promptly, and returns every Budget slot.
func TestCancelClosesStreamAndFreesBudget(t *testing.T) {
	tr, tp := scenario(t, 41)
	cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.SoI, Seed: 41, K: 2}
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Name: sim.SoI.String(), Config: cfg}
	}
	budget := NewBudget(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := Runner{Workers: 4, Budget: budget}
	delivered := 0
	for d := range r.RunStream(ctx, jobs) {
		if d.Index != delivered {
			t.Fatalf("delivery %d arrived out of order (want %d)", d.Index, delivered)
		}
		delivered++
		if delivered == 2 {
			cancel()
		}
	}
	if delivered >= len(jobs) {
		t.Fatalf("cancel after 2 deliveries still delivered all %d jobs", delivered)
	}
	// The channel only closes after the workers have exited, so every slot
	// is back.
	if n := budget.InUse(); n != 0 {
		t.Fatalf("%d budget slots still held after cancel", n)
	}
}

// TestRunFillsCanceledOutcomes: Run under a canceled context reports the
// cancellation cause on every undelivered job instead of zero outcomes.
func TestRunFillsCanceledOutcomes(t *testing.T) {
	tr, tp := scenario(t, 42)
	cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.NoSleep, Seed: 42, K: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before anything runs
	outs := Runner{Workers: 2}.Run(ctx, []Job{{Name: "a", Config: cfg}, {Name: "b", Config: cfg}})
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outs))
	}
	for i, o := range outs {
		if o.Err == nil || !strings.Contains(o.Err.Error(), context.Canceled.Error()) {
			t.Errorf("outcome %d: want canceled error, got %v", i, o.Err)
		}
	}
}

// TestBudgetSharedAcrossRunners: two concurrent streams under one small
// budget both complete, and the in-flight simulation count never exceeds
// the budget.
func TestBudgetSharedAcrossRunners(t *testing.T) {
	tr, tp := scenario(t, 43)
	cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.NoSleep, Seed: 43, K: 2}
	budget := NewBudget(2)
	var running, peak atomic.Int64
	exec := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer running.Add(-1)
		return sim.RunContext(ctx, c)
	}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Name: "j", Config: cfg}
	}
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs := Runner{Workers: 4, Budget: budget, Exec: exec}.Run(context.Background(), jobs)
			if err := FirstErr(outs); err != nil {
				t.Errorf("stream failed under shared budget: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeded budget of 2", p)
	}
	if n := budget.InUse(); n != 0 {
		t.Errorf("%d budget slots leaked", n)
	}
}
