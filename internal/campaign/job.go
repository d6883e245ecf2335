package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"insomnia/internal/dsl"
	"insomnia/internal/runner"
	"insomnia/internal/sim"
)

// RowEvent is one cell-level progress event on Job.Rows. Events arrive in
// cell enumeration order: first every cell restored from the manifest
// (Cached), then each simulated cell as soon as all earlier pending cells
// have also completed (the runner's in-order-prefix guarantee), then —
// only when first attempts failed — the retry outcomes (Retry). A cell
// carries either a Row or an Err, never both.
type RowEvent struct {
	// Index is the cell's position in Plan.Cells enumeration order.
	Index int `json:"index"`
	// Key is the cell's manifest key, e.g. "base|SoI|1"; Scenario,
	// Scheme and Seed are its components, split out for consumers.
	Key      string `json:"key"`
	Scenario string `json:"scenario"`
	Scheme   string `json:"scheme"`
	Seed     int64  `json:"seed"`
	// Row is the reduced result of a successful cell.
	Row *Row `json:"row,omitempty"`
	// Err is the first line of a failed cell's error (the deterministic
	// part of a recovered panic).
	Err string `json:"error,omitempty"`
	// Cached marks a cell restored from the manifest instead of simulated.
	Cached bool `json:"cached,omitempty"`
	// Retry marks the outcome of a failed cell's second attempt.
	Retry bool `json:"retry,omitempty"`
	// Done counts cells with a successful row so far; Total is
	// len(Plan.Cells).
	Done  int `json:"done"`
	Total int `json:"total"`
}

// CollapseNote records one scenario group's symmetry collapse: the group
// was simulated on Classes representative gateways instead of
// FullGateways. Notes appear in RunResult.Collapsed in group enumeration
// order, only for groups whose pending cells actually ran collapsed.
type CollapseNote struct {
	Scenario     string `json:"scenario"`
	Seed         int64  `json:"seed"`
	FullGateways int    `json:"full_gateways"`
	Classes      int    `json:"classes"`
}

// Job is one asynchronously executing campaign. Submit starts it; the
// caller observes progress on Rows, cancels with Cancel, and collects the
// final result with Wait. A Job is safe for concurrent use.
type Job struct {
	plan   *Plan
	rows   chan RowEvent
	cancel context.CancelFunc
	done   chan struct{}

	mu  sync.Mutex
	res *RunResult
	err error
}

// Submit compiles the spec and starts it as a job. It is the programmatic
// equivalent of `campaign run`: validation and output-directory conflicts
// surface synchronously (wrapping ErrSpecInvalid / ErrManifestConflict),
// everything slower — fixture generation, simulation, artifact writing —
// runs in the background. See Plan.Submit for the execution contract.
func Submit(ctx context.Context, spec dsl.Spec, opts Options) (*Job, error) {
	plan, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return plan.Submit(ctx, opts)
}

// Submit starts the compiled plan as a job.
//
// The job restores completed cells from OutDir's manifest (when resuming),
// simulates the remainder over the worker pool — checkpointing each
// completed cell-order prefix — and writes the spec's artifacts.
// Artifacts are byte-deterministic in (spec, seeds): worker count, shared
// Budget contention, interruption, cancellation and resume cannot change
// a single byte of them.
//
// Cancellation — Job.Cancel or ctx — stops the job promptly: queued cells
// never start, in-flight simulations abort at their next epoch barrier,
// and Wait returns an error wrapping ErrCanceled. The manifest keeps every
// completed cell, so resubmitting with Options.Resume continues where the
// job stopped.
//
// Rows is buffered for the job's worst-case event count: the job never
// blocks on a slow (or absent) consumer, so Wait alone is a valid way to
// use a Job.
func (p *Plan) Submit(ctx context.Context, opts Options) (*Job, error) {
	if opts.OutDir == "" {
		return nil, fmt.Errorf("campaign: Options.OutDir is required")
	}
	if err := checkCollapse(opts.Collapse); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(opts.OutDir, ManifestName)

	done := map[string]Row{}
	if _, err := os.Stat(manifestPath); err == nil {
		if !opts.Resume {
			return nil, fmt.Errorf("%w: %s exists; pass -resume to continue it or choose a fresh -out", ErrManifestConflict, manifestPath)
		}
		var err error
		done, err = readManifest(manifestPath, p.Hash)
		if err != nil {
			return nil, err
		}
	} else if opts.Resume && !os.IsNotExist(err) {
		return nil, err
	}

	var pending []Cell
	for _, c := range p.Cells {
		if _, ok := done[c.Key()]; !ok {
			pending = append(pending, c)
		}
	}

	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		plan: p,
		// Worst case: every cached cell + every pending first attempt +
		// every pending retried. Sized so sends below never block.
		rows:   make(chan RowEvent, len(done)+2*len(pending)+1),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go j.execute(jctx, done, pending, manifestPath, opts)
	return j, nil
}

// Simulate runs every cell of the plan and hands fn each cell's Result,
// in cell order, on the calling goroutine. It is Submit's in-memory
// counterpart for callers that reduce Results themselves, such as the
// paper's figures: cells share fixtures and engine runs exactly as in a
// job, so the sibling cells of one engine run arrive one by one, and each
// Result equals a lone sim.Run of its cell. Siblings share their
// gateway-side slices (see sim.Result.Siblings), so fn must treat every
// Result as read-only; it may keep them.
//
// Simulate writes no manifest and no artifacts and retries nothing:
// Options.OutDir and Options.Resume do not apply. The first failed engine
// run, whose error names its cells, or the first error fn returns stops
// the remaining runs and is returned once the worker pool and its Budget
// slots are released. A canceled ctx returns an error wrapping
// ErrCanceled.
//
// A collapsed cell's Result is expanded to the full scenario in every
// aggregate and series, but its per-flow slices (FCT, FlowStall) stay
// quotient-shaped: one entry per flow of the quotient trace. Only
// symmetric placement collapses, and Options.Collapse "off" disables it;
// the figures' specs use shuffled placement and never collapse.
func (p *Plan) Simulate(ctx context.Context, opts Options, fn func(Cell, *sim.Result) error) error {
	if err := checkCollapse(opts.Collapse); err != nil {
		return err
	}
	rctx, stop := context.WithCancel(ctx)
	defer stop()
	b, err := p.prepare(rctx, p.Cells, opts)
	if err != nil {
		return err
	}
	for d := range b.pool.RunStream(rctx, b.jobs) {
		if err != nil {
			continue // stopping: drain until the pool has shut down
		}
		if err = d.Err; err == nil {
			r := b.runs[d.Index]
			for k, c := range r.cells {
				if err = fn(c, r.result(d.Result, k)); err != nil {
					break
				}
			}
		}
		if err != nil {
			stop()
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
	}
	return err
}

// Plan returns the compiled plan the job executes.
func (j *Job) Plan() *Plan { return j.plan }

// Rows returns the job's progress stream. The channel delivers RowEvents
// in cell order (see RowEvent) and closes when the job finishes — after
// the last cell outcome, or early on cancellation. The channel is buffered
// for the job's full event count: reading it is optional.
func (j *Job) Rows() <-chan RowEvent { return j.rows }

// Done returns a channel closed when the job has finished (any outcome).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests the job stop. Queued cells never start; in-flight
// simulations abort at their next epoch barrier; pool and Budget slots are
// released. Completed cells stay checkpointed in the manifest. Cancel is
// idempotent and safe after completion (where it has no effect).
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job finishes and returns its result.
//
//   - success: (*RunResult, nil)
//   - canceled: (nil, error wrapping ErrCanceled)
//   - cells failed after retry: (*RunResult, error wrapping ErrCellsFailed)
//     — the result IS valid: successful rows and artifacts were written,
//     RunResult.Failed names the failed cells
//   - infrastructure fault (checkpoint or artifact I/O): (nil, error)
func (j *Job) Wait() (*RunResult, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// finish records the job's outcome and releases Wait and Rows consumers.
func (j *Job) finish(res *RunResult, err error) {
	j.mu.Lock()
	j.res, j.err = res, err
	j.mu.Unlock()
	j.cancel() // release the context's resources; no-op for the run itself
	close(j.rows)
	close(j.done)
}

// event emits one RowEvent; sends never block (see Submit's buffer sizing).
func (j *Job) event(c Cell, row *Row, errMsg string, cached, retry bool, done int) {
	j.rows <- RowEvent{
		Index: c.Index, Key: c.Key(),
		Scenario: c.Scenario, Scheme: c.Scheme.String(), Seed: c.Seed,
		Row: row, Err: errMsg, Cached: cached, Retry: retry,
		Done: done, Total: len(j.plan.Cells),
	}
}

// execute is the job body: replay cached cells, simulate the pending ones,
// assemble rows and write artifacts.
func (j *Job) execute(ctx context.Context, done map[string]Row, pending []Cell, manifestPath string, opts Options) {
	p := j.plan
	res := &RunResult{Ran: len(pending), Skipped: len(p.Cells) - len(pending)}

	// Replay the restored prefix so a Rows consumer (the server's SSE
	// stream of a resumed job) sees every cell, not just the fresh ones.
	for _, c := range p.Cells {
		if row, ok := done[c.Key()]; ok {
			row := row
			j.event(c, &row, "", true, false, len(done))
		}
	}

	failed := map[string]string{}
	if len(pending) > 0 {
		var err error
		if failed, err = j.runPending(ctx, res, pending, done, manifestPath, opts); err != nil {
			j.finish(nil, err)
			return
		}
	}
	if err := ctx.Err(); err != nil {
		j.finish(nil, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx)))
		return
	}

	for _, c := range p.Cells {
		row, ok := done[c.Key()]
		if !ok {
			if _, isFailed := failed[c.Key()]; isFailed {
				res.Failed = append(res.Failed, c.Key())
				continue
			}
			j.finish(nil, fmt.Errorf("campaign: cell %s missing after run", c.Key()))
			return
		}
		res.Rows = append(res.Rows, row)
	}
	arts, err := p.writeArtifacts(opts.OutDir, res.Rows, res.Failed)
	if err != nil {
		j.finish(nil, err)
		return
	}
	res.Artifacts = arts
	if len(res.Failed) > 0 {
		j.finish(res, fmt.Errorf("%w: %d cell(s) failed after retry: %s",
			ErrCellsFailed, len(res.Failed), strings.Join(res.Failed, ", ")))
		return
	}
	j.finish(res, nil)
}

// runPending generates the fixtures the pending cells need, simulates
// them on the worker pool — one runner job per engineRun — and appends
// each completed cell-order prefix to the manifest. Cells whose
// simulation fails (error or recovered panic) are recorded in the
// manifest and retried once; the cells still failing after the retry come
// back in the returned map. A canceled run returns early with no error —
// the caller turns ctx state into ErrCanceled.
func (j *Job) runPending(ctx context.Context, res *RunResult, pending []Cell, done map[string]Row, manifestPath string, opts Options) (map[string]string, error) {
	p := j.plan
	b, err := p.prepare(ctx, pending, opts)
	if err != nil {
		return nil, err
	}
	fixtures, runs, jobs := b.fixtures, b.runs, b.jobs
	for _, k := range b.groups {
		if g := fixtures[k].geom; g != nil && b.need[k].quot {
			res.Collapsed = append(res.Collapsed, CollapseNote{
				Scenario: p.variants[k.variant].label, Seed: k.seed,
				FullGateways: g.q.FullGateways, Classes: len(g.q.Classes),
			})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil
	}

	mf, err := openManifest(manifestPath, p, len(done) > 0)
	if err != nil {
		return nil, err
	}
	defer mf.Close()

	withPower := p.Spec.HasOutput("power")
	enc := json.NewEncoder(mf)
	var emitErr error
	// emit checkpoints one engine run's outcome, cell by cell in cell
	// order: a row entry per cell on success, an error entry per cell on
	// failure (so an interrupted run re-executes the cells on resume) —
	// each followed by the matching RowEvent. Outcomes that merely report
	// the run's own cancellation are not cell failures and are dropped.
	emit := func(r engineRun, o runner.Outcome, retry bool) bool {
		if emitErr != nil || (o.Err != nil && errors.Is(o.Err, context.Canceled)) {
			return false
		}
		errMsg := ""
		if o.Err != nil {
			errMsg = firstLine(o.Err.Error())
		}
		for k, c := range r.cells {
			e := manifestEntry{Key: c.Key()}
			if o.Err != nil {
				e.Error = o.Err.Error()
			} else {
				f := fixtures[groupKey{c.variant, c.Seed}]
				row := reduce(c, p.variants[c.variant].spec.Duration, r.result(o.Result, k), withPower, f, r.collapsed)
				done[c.Key()] = row
				e.Row = &row
			}
			if err := enc.Encode(e); err != nil {
				emitErr = err
				return false
			}
			if err := mf.Flush(); err != nil {
				emitErr = err
				return false
			}
			j.event(c, e.Row, errMsg, false, retry, len(done))
		}
		return o.Err == nil
	}
	var failedIdx []int
	for d := range b.pool.RunStream(ctx, jobs) {
		res.Runs++
		if !emit(runs[d.Index], d.Outcome, false) {
			if d.Err != nil && emitErr == nil && !errors.Is(d.Err, context.Canceled) {
				failedIdx = append(failedIdx, d.Index)
			}
		}
	}
	if emitErr != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", emitErr)
	}
	if ctx.Err() != nil {
		return nil, mf.Sync()
	}
	// One retry for the failed runs: transient faults (a poisoned worker,
	// an OOM-killed shard) get a second chance; deterministic failures fail
	// again and are surfaced instead of aborting the whole campaign. A
	// failed run retries as a whole, siblings included.
	failed := map[string]string{}
	if len(failedIdx) > 0 {
		retry := make([]runner.Job, len(failedIdx))
		for ri, i := range failedIdx {
			retry[ri] = jobs[i]
		}
		for d := range b.pool.RunStream(ctx, retry) {
			res.Runs++
			r := runs[failedIdx[d.Index]]
			if !emit(r, d.Outcome, true) {
				if d.Err != nil && emitErr == nil && !errors.Is(d.Err, context.Canceled) {
					for _, c := range r.cells {
						failed[c.Key()] = d.Err.Error()
					}
				}
			}
		}
		if emitErr != nil {
			return nil, fmt.Errorf("campaign: checkpoint: %w", emitErr)
		}
	}
	return failed, mf.Sync()
}

// batch is the simulation work of a list of cells: the fixtures they
// need, their engine runs, and the runner job and worker pool that
// simulate each run.
type batch struct {
	fixtures map[groupKey]*fixture
	need     map[groupKey]*needs
	groups   []groupKey
	runs     []engineRun
	jobs     []runner.Job // jobs[i] simulates runs[i]
	pool     runner.Runner
}

// prepare generates the fixtures the cells need and groups the cells into
// engine runs, one runner job each. It is the one place cells become
// sim.Configs, shared by a Job's runPending and by Simulate. When ctx is
// canceled during fixture generation, the batch holds the fixtures that
// completed and no runs.
func (p *Plan) prepare(ctx context.Context, cells []Cell, opts Options) (*batch, error) {
	if opts.Workers == 0 {
		opts.Workers = p.Spec.Workers
	}
	fixtures, need, groups, err := p.buildFixtures(ctx, cells, opts)
	if err != nil {
		return nil, err
	}
	b := &batch{
		fixtures: fixtures, need: need, groups: groups,
		pool: runner.Runner{Workers: opts.Workers, Budget: opts.Budget, Exec: opts.exec},
	}
	if ctx.Err() != nil {
		return b, nil
	}
	b.runs = p.engineRuns(cells, fixtures, opts)
	b.jobs = make([]runner.Job, len(b.runs))
	for i, r := range b.runs {
		c := r.cells[0]
		v := p.variants[c.variant].spec
		cfg := simConfig(v, fixtures[groupKey{c.variant, c.Seed}], c, r.collapsed)
		for _, sib := range r.cells[1:] {
			cfg.Siblings = append(cfg.Siblings, sib.Scheme)
		}
		cfg.Shards = engineShards(opts.Shards, v.Shards, opts.Workers, len(b.runs))
		b.jobs[i] = runner.Job{Name: r.name(), Config: cfg}
	}
	return b, nil
}

// engineRun is one simulation of the job: a run of consecutive pending
// cells that share a fixture, a collapse decision and a gateway side
// (sim.GatewaySide). cells[0] is the simulated scheme and the rest ride
// along as its sibling fabrics (sim.Config.Siblings), so the gateway side
// is simulated once for all of them.
type engineRun struct {
	cells     []Cell
	collapsed bool
}

// result is the Result of the run's k-th cell, given the run's own.
func (r engineRun) result(res *sim.Result, k int) *sim.Result {
	if k == 0 {
		return res
	}
	return res.Siblings[k-1]
}

// name joins the run's cell keys: the runner prefixes failures with it.
func (r engineRun) name() string {
	keys := make([]string, len(r.cells))
	for i, c := range r.cells {
		keys[i] = c.Key()
	}
	return strings.Join(keys, ", ")
}

// engineRuns groups the pending cells into engine runs. Only consecutive
// cells group, so outcomes still arrive in cell order and RowEvents and
// manifest entries need no reordering.
func (p *Plan) engineRuns(pending []Cell, fixtures map[groupKey]*fixture, opts Options) []engineRun {
	type runKey struct {
		group     groupKey
		collapsed bool
		side      sim.Scheme
	}
	var runs []engineRun
	var last runKey
	for i, c := range pending {
		g := groupKey{c.variant, c.Seed}
		mode := collapseMode(opts.Collapse, p.variants[c.variant].spec.Collapse)
		k := runKey{g, mode == "auto" && sim.Collapsible(c.Scheme) && fixtures[g].geom != nil, sim.GatewaySide(c.Scheme)}
		if n := len(runs); n > 0 && k == last {
			// cells is a window on pending: widen it by the next cell.
			runs[n-1].cells = runs[n-1].cells[:len(runs[n-1].cells)+1]
			continue
		}
		runs = append(runs, engineRun{cells: pending[i : i+1], collapsed: k.collapsed})
		last = k
	}
	return runs
}

// groupKey identifies one (variant, seed) fixture group.
type groupKey struct {
	variant int
	seed    int64
}

// buildFixtures generates the scenario fixtures the pending cells need, in
// parallel: fixture generation is deterministic per (variant, seed) and
// independent, so the worker pool does not have to idle behind serial
// trace synthesis. All pending fixtures stay resident for the run; results
// do not: an engine run's Results live only until its group's checkpoint
// reduces them to Rows, so beyond the fixtures a run holds just the groups
// in flight. Shard a campaign into several specs if the fixtures of
// variants x seeds of a city-scale scenario exceed memory.
func (p *Plan) buildFixtures(ctx context.Context, pending []Cell, opts Options) (map[groupKey]*fixture, map[groupKey]*needs, []groupKey, error) {
	var groups []groupKey
	for _, c := range pending {
		k := groupKey{c.variant, c.Seed}
		if len(groups) == 0 || groups[len(groups)-1] != k {
			groups = append(groups, k)
		}
	}
	// Decide per group which scenario shapes its cells need. With collapse
	// on, a group whose pending cells are all collapsible schemes never
	// generates its full city-scale trace — the bulk of the speedup on
	// symmetric sweeps.
	need := make(map[groupKey]*needs, len(groups))
	for _, c := range pending {
		k := groupKey{c.variant, c.Seed}
		n := need[k]
		if n == nil {
			n = &needs{}
			need[k] = n
		}
		mode := collapseMode(opts.Collapse, p.variants[c.variant].spec.Collapse)
		if mode == "auto" && sim.Collapsible(c.Scheme) {
			n.quot = true
		} else {
			n.full = true
		}
	}
	fixtures := make(map[groupKey]*fixture, len(groups))
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, genWorkers(opts.Workers, len(groups)))
	)
	errs := make([]error, len(groups))
	for i, k := range groups {
		if ctx.Err() != nil {
			break // canceled: skip the not-yet-started groups
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k groupKey) {
			defer func() { <-sem; wg.Done() }()
			n := need[k]
			f, err := buildFixture(p.variants[k.variant].spec, k.seed, n.full, n.quot)
			if err != nil {
				errs[i] = fmt.Errorf("campaign: scenario %s seed %d: %w", p.variants[k.variant].label, k.seed, err)
				return
			}
			mu.Lock()
			fixtures[k] = f
			mu.Unlock()
		}(i, k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if ctx.Err() != nil {
		// Canceled mid-generation: report only the groups that completed.
		var doneGroups []groupKey
		for _, k := range groups {
			if fixtures[k] != nil {
				doneGroups = append(doneGroups, k)
			}
		}
		groups = doneGroups
	}
	return fixtures, need, groups, nil
}

// needs records which scenario shapes one fixture group's cells require.
type needs struct{ full, quot bool }
