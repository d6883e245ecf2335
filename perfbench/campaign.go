package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/runner"
)

// campaignRun is one campaign job as the benchmark observed it.
type campaignRun struct {
	wall     float64 // Submit until Wait returns, seconds
	failed   int     // cells without a row
	summary  []byte
	results  []byte
	manifest int64 // manifest.jsonl size, bytes
}

// runCampaign submits sp in-process, drains its row stream and waits for
// it. With a tracer it records the job, its wait for the first row and its
// tail from the last row to Wait.
func runCampaign(ctx context.Context, sp dsl.Spec, outDir string, budget *runner.Budget, tr *tracer, parent int) (*campaignRun, error) {
	t0 := time.Now()
	job, err := campaign.Submit(ctx, sp, campaign.Options{OutDir: outDir, Budget: budget})
	if err != nil {
		return nil, err
	}
	var first, last time.Time
	for range job.Rows() {
		last = time.Now()
		if first.IsZero() {
			first = last
		}
	}
	res, err := job.Wait()
	end := time.Now()
	if res == nil {
		return nil, err
	}
	run := &campaignRun{wall: end.Sub(t0).Seconds(), failed: len(res.Failed)}
	if !first.IsZero() {
		id := tr.add("campaign.job", parent, t0, end)
		tr.add("campaign.first_row", id, t0, first)
		tr.add("campaign.tail", id, last, end)
	}
	if err != nil && !errors.Is(err, campaign.ErrCellsFailed) {
		return nil, err
	}
	if run.summary, err = os.ReadFile(filepath.Join(outDir, "summary.csv")); err != nil {
		return nil, err
	}
	if run.results, err = os.ReadFile(filepath.Join(outDir, "results.json")); err != nil {
		return nil, err
	}
	st, err := os.Stat(filepath.Join(outDir, campaign.ManifestName))
	if err != nil {
		return nil, err
	}
	run.manifest = st.Size()
	return run, nil
}

// batchRep runs one repetition of a batch workload: the campaign, timed
// and checked, then the set-up alone, timed after it in the same process.
func batchRep(ctx context.Context, w workload, seed int64, dir string) (*repResult, error) {
	sp, err := w.spec(seed, 0)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run, err := runCampaign(ctx, sp, filepath.Join(dir, "campaign"), nil, nil, 0)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	out := &repResult{
		Wall:      run.wall,
		RSSMB:     peakRSSMB(),
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		Jobs:      []float64{run.wall},
		Attempted: len(sp.Schemes) * len(sp.Seeds),
		Failed:    run.failed,
		Digests:   []artifactSums{sumArtifacts(run.summary, run.results)},
	}
	rows, err := checkArtifacts(sp, run.summary, run.results)
	if err != nil {
		out.Errors = append(out.Errors, err.Error())
	}
	out.Setup, err = setupSamples(func() error { return batchSetup(sp, rows) })
	return out, err
}

// batchSetup is a batch workload's set-up: compiling the spec and building
// every (variant, seed) group's scenario in the shapes its rows say the
// campaign built.
func batchSetup(sp dsl.Spec, rows []campaign.Row) error {
	plan, err := campaign.Compile(sp)
	if err != nil {
		return err
	}
	sp = plan.Spec
	for _, seed := range sp.Seeds {
		full, quot := shapes(sp, rows, seed)
		if quot {
			if _, _, _, err := campaign.BuildCollapsedScenario(sp, seed); err != nil {
				return err
			}
		}
		if full {
			if _, _, err := campaign.BuildScenario(sp, seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// setupSamples times fn repeatedly, at least once and until half a second
// has been spent or 25 samples taken, so a set-up of milliseconds still
// yields a steady median.
func setupSamples(fn func() error) ([]float64, error) {
	var xs []float64
	total := 0.0
	for len(xs) < 25 && (len(xs) == 0 || total < 0.5) {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t).Seconds()
		xs = append(xs, d)
		total += d
	}
	return xs, nil
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
