// Package runner is the deterministic parallel experiment runner: it
// schedules campaigns of independent simulations (many schemes, seeds,
// densities, ...) over a fixed-size worker pool and collects results in
// job order, so campaign output is byte-identical regardless of how many
// workers ran it.
//
// Safety rests on two invariants the sim layer upholds:
//
//   - sim.Run is deterministic: all randomness flows through per-run RNGs
//     derived from Config.Seed, and scheme strategies keep every bit of run
//     state on the per-run sim value.
//   - Jobs may share read-only fixtures (one trace.Trace / one
//     topology.Topology generated once, referenced by many Configs);
//     nothing in a run mutates them.
//
// The runner is the seam scaling work plugs into: anything that can
// enumerate Jobs can fan out through it. Long-running services share one
// Budget across many Runners so the whole process observes a single
// concurrency ceiling no matter how many campaigns are in flight.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"insomnia/internal/sim"
)

// Job names one simulation in a campaign.
type Job struct {
	Name   string
	Config sim.Config
}

// Outcome pairs a job with its result or error.
type Outcome struct {
	Job    Job
	Result *sim.Result
	Err    error
}

// Delivery is one in-order outcome from RunStream: the job's index in the
// submitted slice plus its outcome.
type Delivery struct {
	Index int
	Outcome
}

// Budget is a process-wide concurrency ceiling shared by any number of
// Runners: every worker, in every pool sharing the budget, holds one slot
// while a simulation executes. Waiters queue on a channel, so concurrent
// campaigns interleave roughly first-come-first-served at job granularity —
// no campaign can starve another, and a canceled campaign's workers stop
// acquiring immediately, returning its slots to the rest. The zero Budget
// must not be used; a nil *Budget means "no shared ceiling".
type Budget struct {
	sem   chan struct{}
	inUse atomic.Int64
}

// NewBudget creates a budget of n slots; n <= 0 means GOMAXPROCS.
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Budget{sem: make(chan struct{}, n)}
}

// Slots returns the budget's capacity.
func (b *Budget) Slots() int { return cap(b.sem) }

// InUse returns the number of currently held slots (diagnostics: the
// campaign server's stats endpoint and the slot-release tests read it).
func (b *Budget) InUse() int { return int(b.inUse.Load()) }

// acquire takes one slot, or reports false when ctx is canceled first.
func (b *Budget) acquire(ctx context.Context) bool {
	select {
	case b.sem <- struct{}{}:
		b.inUse.Add(1)
		return true
	default:
	}
	select {
	case b.sem <- struct{}{}:
		b.inUse.Add(1)
		return true
	case <-ctx.Done():
		return false
	}
}

func (b *Budget) release() {
	b.inUse.Add(-1)
	<-b.sem
}

// Runner executes jobs on a fixed-size worker pool. The zero value is
// ready to use and sizes the pool by GOMAXPROCS.
type Runner struct {
	// Workers caps this runner's own concurrent simulations; <=0 means
	// GOMAXPROCS. 1 recovers the fully serial path.
	Workers int
	// Budget, when non-nil, is a shared ceiling across runners: a worker
	// additionally holds one budget slot per executing job, so the sum of
	// running simulations across every runner sharing the budget never
	// exceeds Budget.Slots(). Workers still caps this runner alone.
	Budget *Budget
	// Exec overrides how a job's simulation is executed; nil means
	// sim.RunContext. It exists so campaign fault-tolerance tests can
	// inject panics and slow jobs without touching the engine.
	Exec func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
}

// Run executes every job and returns outcomes in job order. Errors don't
// stop the campaign: each failed job carries its own Err and the rest
// still run (use FirstErr to fail fast afterwards). When ctx is canceled
// mid-run the slice is still fully populated: jobs that never produced an
// in-order outcome carry ctx's cause as their Err.
func (r Runner) Run(ctx context.Context, jobs []Job) []Outcome {
	out := make([]Outcome, len(jobs))
	for i, j := range jobs {
		out[i] = Outcome{Job: j}
	}
	n := 0
	for d := range r.RunStream(ctx, jobs) {
		out[d.Index] = d.Outcome
		n++
	}
	if n < len(jobs) {
		cause := context.Cause(ctx)
		if cause == nil { // closed early without cancellation cannot happen, but stay safe
			cause = context.Canceled
		}
		for i := n; i < len(jobs); i++ {
			out[i].Err = fmt.Errorf("runner: job %q: %w", jobs[i].Name, cause)
		}
	}
	return out
}

// RunStream executes the jobs over the pool and returns a channel of
// in-order deliveries.
//
// Close semantics: the channel delivers outcomes strictly in job order —
// delivery i appears only after every delivery < i — and closes after the
// last in-order outcome, or early when ctx is canceled. On cancellation
// the delivered prefix is exactly the jobs whose outcomes were complete
// and contiguous at that point; in-flight simulations abort promptly
// (sim.RunContext polls the context at epoch barriers) and their slots —
// pool and Budget — are released before the channel closes. Callers must
// drain the channel or cancel ctx; abandoning it leaks the pool.
//
// Memory: the stream keeps an outcome only until it is delivered, so a
// consumer that reduces each Result and drops it holds just the cells in
// flight plus those finished ahead of the delivery cursor.
//
// The in-order-prefix guarantee is what makes checkpoint/resume trivial
// for the campaign layer: whatever a consumer persisted before an
// interruption is exactly a prefix of the job list.
func (r Runner) RunStream(ctx context.Context, jobs []Job) <-chan Delivery {
	out := make(chan Delivery)
	go r.stream(ctx, jobs, out)
	return out
}

func (r Runner) stream(ctx context.Context, jobs []Job, out chan<- Delivery) {
	defer close(out)
	if len(jobs) == 0 {
		return
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	exec := r.Exec
	if exec == nil {
		exec = sim.RunContext
	}
	results := make([]Outcome, len(jobs))
	next := make(chan int)
	done := make(chan int, len(jobs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if r.Budget != nil {
					if !r.Budget.acquire(ctx) {
						return // canceled while queued: never ran, nothing to report
					}
				}
				res, err := runJob(ctx, exec, jobs[i])
				if r.Budget != nil {
					r.Budget.release()
				}
				if err != nil {
					err = fmt.Errorf("runner: job %q: %w", jobs[i].Name, err)
				}
				// Each worker writes only its own index: ordered collection
				// with no post-hoc sorting and no shared accumulator. The
				// send on done publishes the write to the collector.
				results[i] = Outcome{Job: jobs[i], Result: res, Err: err}
				done <- i
			}
		}()
	}
	go func() {
		defer close(next)
		for i := range jobs {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	completed := make([]bool, len(jobs))
	cursor := 0
	for n := 0; n < len(jobs); n++ {
		select {
		case i := <-done:
			completed[i] = true
			for cursor < len(jobs) && completed[cursor] {
				select {
				case out <- Delivery{Index: cursor, Outcome: results[cursor]}:
				case <-ctx.Done():
					wg.Wait() // workers abort promptly: the sims poll ctx
					return
				}
				// The consumer owns the outcome now: holding it here too
				// would keep every Result alive until the stream ends.
				results[cursor] = Outcome{}
				cursor++
			}
		case <-ctx.Done():
			wg.Wait()
			return
		}
	}
	wg.Wait()
}

// runJob executes one job, converting a panic in the simulation into an
// ordinary error so one poisoned cell cannot take down a whole campaign
// (or the worker pool with it). The panic value and stack ride along in
// the error; the caller decides whether to retry, skip or abort.
func runJob(ctx context.Context, exec func(context.Context, sim.Config) (*sim.Result, error), j Job) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return exec(ctx, j.Config)
}

// Run executes jobs with a default (GOMAXPROCS-wide) pool.
func Run(ctx context.Context, jobs []Job) []Outcome { return Runner{}.Run(ctx, jobs) }

// FirstErr returns the first error in job order, or nil.
func FirstErr(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}
