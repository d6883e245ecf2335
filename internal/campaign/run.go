package campaign

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"insomnia/internal/runner"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
)

// ManifestName is the checkpoint file inside the output directory.
const ManifestName = "manifest.jsonl"

// Options controls one campaign job.
type Options struct {
	// Workers caps the job's concurrent simulations; <=0 first defers to
	// the spec's workers key, then to GOMAXPROCS.
	Workers int
	// Budget, when non-nil, is a shared concurrency ceiling across jobs
	// (runner.Budget): however many campaigns are in flight, the sum of
	// their running simulations never exceeds Budget.Slots(). Workers
	// still caps this job alone.
	Budget *runner.Budget
	// Shards overrides the engine shard count of every simulation
	// (sim.Config.Shards); 0 defers to the spec's shards key, and when
	// that is auto too the campaign shards each simulation over the cores
	// the worker pool leaves idle (see engineShards). Results are
	// byte-identical at every value.
	Shards int
	// OutDir receives the manifest and artifacts. Required.
	OutDir string
	// Resume skips cells already recorded in OutDir's manifest (from an
	// interrupted earlier run of the same spec). Cells whose latest
	// manifest entry is an error are re-executed, not skipped. Without
	// Resume an existing manifest is an ErrManifestConflict — a campaign
	// does not silently overwrite another's checkpoint.
	Resume bool
	// Collapse overrides the spec's collapse key: "auto" simulates
	// symmetry-eligible cells on their quotient scenario, "off" forces
	// full simulation everywhere, "" defers to the spec (whose own default
	// is auto). Artifacts are byte-identical under both modes — collapse
	// only changes how much work producing them takes. Submit and Simulate
	// reject any other value.
	Collapse string

	// exec overrides how each cell's simulation runs (runner.Runner.Exec);
	// nil means sim.RunContext. Test seam for fault injection.
	exec func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
}

// RunResult reports what a campaign job did.
type RunResult struct {
	Rows      []Row          // one per successful cell, in cell enumeration order
	Ran       int            // cells simulated in this execution
	Runs      int            // engine runs made: sibling cells share one (engineRun), retries count
	Skipped   int            // cells restored from the manifest
	Failed    []string       // cell keys that failed even after the retry, in cell order
	Artifacts []string       // files written under OutDir
	Collapsed []CollapseNote // scenario groups simulated on their symmetry quotient
}

// manifestHeader is the first line of a manifest, binding it to a spec.
type manifestHeader struct {
	Campaign string `json:"campaign"`
	Hash     string `json:"hash"`
	Version  int    `json:"version"`
}

// manifestEntry is one completed cell attempt: a reduced row on success,
// an error (panic value or sim error, stack included) on failure. A later
// entry for the same key supersedes an earlier one, so a retried cell's
// success line wins over its failure line and a cell whose latest entry
// is an error is re-executed on resume.
type manifestEntry struct {
	Key   string `json:"key"`
	Row   *Row   `json:"row,omitempty"`
	Error string `json:"error,omitempty"`
}

// firstLine truncates an error to its first line: the deterministic part
// of a recovered panic (the stack below varies by goroutine).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// engineShards resolves one simulation's engine shard count: an explicit
// run-time override wins, then the spec's shards key; when both are auto
// the campaign gives each simulation only the cores its worker pool
// leaves idle — with enough cells, cell-level parallelism already
// saturates the machine and intra-sim sharding would just oversubscribe.
func engineShards(override, spec, workers, cells int) int {
	if override > 0 {
		return override
	}
	if spec > 0 {
		return spec
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cells > 0 && cells < workers {
		workers = cells
	}
	if per := runtime.GOMAXPROCS(0) / workers; per >= 2 {
		return per
	}
	return 1
}

// genWorkers bounds fixture-generation concurrency like the runner
// bounds simulation concurrency.
func genWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// flushFile is an os.File behind a bufio.Writer with checkpoint-grained
// flushing.
type flushFile struct {
	f *os.File
	w *bufio.Writer
}

func (ff *flushFile) Write(p []byte) (int, error) { return ff.w.Write(p) }
func (ff *flushFile) Flush() error                { return ff.w.Flush() }
func (ff *flushFile) Sync() error {
	if err := ff.w.Flush(); err != nil {
		return err
	}
	return ff.f.Sync()
}
func (ff *flushFile) Close() error {
	ff.w.Flush()
	return ff.f.Close()
}

// openManifest opens the checkpoint for appending, writing the header
// when the file is fresh.
func openManifest(path string, p *Plan, resuming bool) (*flushFile, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	ff := &flushFile{f: f, w: bufio.NewWriter(f)}
	if !resuming {
		if st, err := f.Stat(); err == nil && st.Size() == 0 {
			hdr := manifestHeader{Campaign: p.Spec.Name, Hash: p.Hash, Version: 1}
			if err := json.NewEncoder(ff).Encode(hdr); err != nil {
				f.Close()
				return nil, err
			}
			if err := ff.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return ff, nil
}

// readManifest loads a checkpoint, verifying it belongs to the same spec.
// A torn final line (the process died mid-append) is tolerated and
// dropped; corruption anywhere else is an error.
func readManifest(path, wantHash string) (map[string]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("campaign: %s: empty manifest", path)
	}
	var hdr manifestHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("campaign: %s: bad manifest header: %w", path, err)
	}
	if hdr.Hash != wantHash {
		return nil, fmt.Errorf("%w: %s belongs to a different spec (hash %s, want %s); use a fresh -out", ErrManifestConflict, path, hdr.Hash, wantHash)
	}
	done := map[string]Row{}
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			return nil, pendingErr // corrupt line that was not the last
		}
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e manifestEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			pendingErr = fmt.Errorf("campaign: %s: corrupt manifest entry: %w", path, err)
			continue
		}
		// Entries apply in file order: a failure entry voids any earlier
		// success (the cell re-runs), a retried cell's success wins back.
		if e.Row == nil {
			delete(done, e.Key)
			continue
		}
		done[e.Key] = *e.Row
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return done, nil
}

// writeArtifacts renders the requested artifacts from the full row set,
// in cell order. All output is deterministic text.
func (p *Plan) writeArtifacts(dir string, rows []Row, failed []string) ([]string, error) {
	var arts []string
	write := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		arts = append(arts, path)
		return nil
	}
	if p.Spec.HasOutput("summary") {
		if err := write("summary.csv", func(w io.Writer) error { return writeSummaryCSV(w, rows) }); err != nil {
			return nil, err
		}
	}
	if p.Spec.HasOutput("json") {
		if err := write("results.json", func(w io.Writer) error { return p.writeResultsJSON(w, rows, failed) }); err != nil {
			return nil, err
		}
	}
	if p.Spec.HasOutput("power") {
		if err := write("power.csv", func(w io.Writer) error { return writePowerCSV(w, rows) }); err != nil {
			return nil, err
		}
	}
	return arts, nil
}

// writeSummaryCSV writes one row per cell. The savings column compares
// each cell against the no-sleep cell of the same (scenario, seed) when
// the campaign includes one; baseline rows read 0 and campaigns without a
// baseline leave the column blank.
func writeSummaryCSV(w io.Writer, rows []Row) error {
	base := map[string]float64{}
	for _, r := range rows {
		if r.Scheme == sim.NoSleep.String() {
			base[r.Scenario+"|"+strconv.FormatInt(r.Seed, 10)] = r.EnergyKWh
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scenario", "scheme", "seed", "energy_kwh", "user_kwh", "isp_kwh",
		"savings_pct", "wakeups", "moves", "resolves", "mean_online_gws", "fct_p50_s", "fct_p95_s",
		"stranded_s", "reconnects", "availability", "collapsed_classes",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		savings := ""
		if b, ok := base[r.Scenario+"|"+strconv.FormatInt(r.Seed, 10)]; ok && b > 0 {
			savings = fmtF(round6((1 - r.EnergyKWh/b) * 100))
		}
		// Robustness columns stay blank for failure-free cells, like the
		// savings column does for campaigns without a baseline.
		stranded, reconn, avail := "", "", ""
		if r.Availability != nil {
			stranded = fmtF(r.StrandedS)
			reconn = strconv.Itoa(r.Reconnects)
			avail = fmtF(*r.Availability)
		}
		classes := ""
		if r.CollapsedClasses > 0 {
			classes = strconv.Itoa(r.CollapsedClasses)
		}
		rec := []string{
			r.Scenario, r.Scheme, strconv.FormatInt(r.Seed, 10),
			fmtF(r.EnergyKWh), fmtF(r.UserKWh), fmtF(r.ISPKWh), savings,
			strconv.Itoa(r.Wakeups), strconv.Itoa(r.Moves), strconv.Itoa(r.Resolves),
			fmtF(r.MeanOnlineGWs), fmtF(r.FCTP50), fmtF(r.FCTP95),
			stranded, reconn, avail, classes,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// resultsJSON is the deterministic results.json shape. No timestamps: two
// runs of the same spec must produce identical bytes.
type resultsJSON struct {
	Campaign string   `json:"campaign"`
	Hash     string   `json:"hash"`
	Cells    int      `json:"cells"`
	Failed   []string `json:"failed,omitempty"` // cells with no result after the retry
	Rows     []Row    `json:"rows"`
}

func (p *Plan) writeResultsJSON(w io.Writer, rows []Row, failed []string) error {
	// Strip the bulky hourly series from the JSON rows; it has its own
	// artifact (power.csv) when requested.
	slim := make([]Row, len(rows))
	for i, r := range rows {
		r.PowerHourly = nil
		slim[i] = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resultsJSON{Campaign: p.Spec.Name, Hash: p.Hash, Cells: len(rows), Failed: failed, Rows: slim})
}

// writePowerCSV renders every cell's hourly mean power as one series
// column over a shared hour axis, via the stats CSV writer.
func writePowerCSV(w io.Writer, rows []Row) error {
	var series []stats.Series
	for _, r := range rows {
		s := stats.Series{Name: fmt.Sprintf("%s/%s/seed%d", r.Scenario, r.Scheme, r.Seed)}
		for h, v := range r.PowerHourly {
			s.X = append(s.X, float64(h))
			s.Y = append(s.Y, v)
		}
		series = append(series, s)
	}
	return stats.WriteSeriesCSV(w, "hour", series)
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
