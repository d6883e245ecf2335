// Command perfbench is the repository's benchmark: spec in, artifacts out.
// It runs four named workloads through the campaign layer and the campaign
// server, prints every end-to-end metric by name with its unit, checks that
// the outputs are correct, and with -trace 1 measures the per-layer metrics
// in a separate traced pass. Run it from the repository root through its
// launcher, which builds it first:
//
//	bash perfbench/run.sh [-workload NAME|all] [-seed S] [-seconds N] [-trace 0|1]
//	                      [-spans FILE] [-out FILE] [-against auto|FILE] [-update-digests]
//
// BENCHMARK.json at the repository root names the workloads and the
// metrics with their units, directions and bounds; a run fails when the
// metrics it measures are not exactly the ones listed there.
//
// Each repetition runs in a fresh child process that the benchmark
// re-executes, so one repetition's heap never paces the next one's garbage
// collector or inflates its resident set. Repetitions continue until the
// run has measured for -seconds. The last line of standard output is one
// JSON object per workload with the keys correct, attempted, failed and
// metrics. README.md documents the workloads, the metrics and how a change
// claims a gain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"time"

	"insomnia/internal/cli"
)

// benchFile is BENCHMARK.json, the definition of the benchmark's
// workloads and metrics.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric of BENCHMARK.json. Per-layer metrics have no
// bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchFile reads BENCHMARK.json and requires it to list this
// benchmark's workloads, in order.
func loadBenchFile(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var listed, ours []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(listed, ours) {
		return nil, fmt.Errorf("%s lists workloads %v, the benchmark runs %v", path, listed, ours)
	}
	return &bf, nil
}

// sameMetrics requires values to hold exactly the metrics defs names.
func sameMetrics(defs []metricDef, values map[string]float64) error {
	var want, got []string
	for _, d := range defs {
		want = append(want, d.Name)
	}
	for name := range values {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(want, got) {
		return fmt.Errorf("BENCHMARK.json lists metrics %v, the benchmark measures %v", want, got)
	}
	return nil
}

// minReps is the fewest untraced repetitions a run makes, however long
// they take.
const minReps = 3

// deadlineSlack is how long a run may go on past -seconds before its
// children are killed: the minimum repetitions may outlast a short run,
// and a traced run always makes one repetition of each kind.
const deadlineSlack = 140 * time.Second

// workRoot holds the repetitions' campaign outputs and server data,
// relative to the repository root.
const workRoot = ".bench_build/work"

// repResult is what one child repetition reports to the parent.
type repResult struct {
	Wall      float64            `json:"wall_s"`
	Setup     []float64          `json:"setup_s,omitempty"`
	RSSMB     float64            `json:"peak_rss_mb,omitempty"`
	AllocMB   float64            `json:"alloc_mb,omitempty"`
	Jobs      []float64          `json:"job_latency_s,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digests   []artifactSums     `json:"digests"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []Span             `json:"spans,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed          int64
	seconds       int
	traced        bool
	updateDigests bool
	digests       digestFile
	bench         *benchFile
}

func main() {
	name := flag.String("workload", "all", "workload to run: office-day, metro-sharded, metro-symmetric, simd-drill or all")
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Int("seconds", 30, "how long one workload's run measures, in seconds")
	traceMode := flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced pass and reports the per-layer metrics")
	spansOut := flag.String("spans", "", "with -trace 1, write the traced pass's spans to this JSON file")
	out := flag.String("out", "", "merge this run's metrics into a record file, e.g. "+recordDir+"/BENCH_<date>.json")
	against := flag.String("against", "", `compare the end-to-end metrics with a record under BENCHMARK.json's bounds ("auto": the newest record in `+recordDir+`)`)
	updateDigests := flag.Bool("update-digests", false, "pin this run's artifact digests in "+digestPath)
	child := flag.Bool("child", false, "internal: run one repetition of -workload and report it as JSON")
	rep := flag.Int("rep", 0, "internal: the -child repetition's index")
	flag.Parse()
	if err := cli.RejectArgs("perfbench", flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *child {
		if err := childMain(*name, *seed, *rep, *traceMode == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(*name, *spansOut, *out, *against, options{
		seed: *seed, seconds: *seconds, traced: *traceMode == 1, updateDigests: *updateDigests,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed a check; its result line
// is still printed.
var errIncorrect = errors.New("outputs failed their checks")

func parentMain(name, spansOut, out, against string, o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	run := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		run = []workload{w}
	}
	var err error
	if o.bench, err = loadBenchFile("BENCHMARK.json"); err != nil {
		return err
	}
	if o.digests, err = loadDigests(); err != nil {
		return err
	}
	rec := newRecord(o)
	var spans []Span
	incorrect := false
	for _, w := range run {
		res, reps, wspans, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		spans = append(spans, wspans...)
		rec.add(w, res, reps, o.traced)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		incorrect = incorrect || !res.Correct || res.Failed > 0
	}
	if spansOut != "" && o.traced {
		if err := writeJSON(spansOut, spans); err != nil {
			return err
		}
	}
	if o.updateDigests {
		if err := o.digests.merge(digestPath); err != nil {
			return err
		}
	}
	if out != "" {
		if err := rec.merge(out); err != nil {
			return err
		}
	}
	if against != "" {
		if err := gate(rec, against, out, o.bench.EndToEnd); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runWorkload measures one workload and checks its outputs.
func runWorkload(w workload, o options) (*result, int, []Span, error) {
	untraced, traced, err := repeat(w, o)
	if err != nil {
		return nil, 0, nil, err
	}
	all := append(append([]*repResult(nil), untraced...), traced...)
	res := &result{Metrics: map[string]metric{}}
	var errs []string
	for i, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		errs = append(errs, r.Errors...)
		// Every repetition, traced or not, must write the same artifacts.
		if !slices.Equal(r.Digests, all[0].Digests) {
			errs = append(errs, fmt.Sprintf("repetition %d wrote different artifacts than repetition 0", i))
		}
	}
	if d := all[0].Digests; len(d) > 0 {
		if o.updateDigests {
			if o.digests[w.name] == nil {
				o.digests[w.name] = map[int64]artifactSums{}
			}
			o.digests[w.name][o.seed] = d[0]
		} else if err := o.digests.check(w.name, o.seed, d[0]); err != nil {
			errs = append(errs, err.Error())
		}
	}

	var (
		defs   []metricDef
		values map[string]float64
		spans  []Span
	)
	if o.traced {
		defs, values = o.bench.PerLayer, layerValues(untraced[0], traced)
		for _, r := range traced {
			spans = append(spans, r.Spans...)
		}
	} else {
		defs, values = o.bench.EndToEnd, endToEndValues(w, untraced)
	}
	if err := sameMetrics(defs, values); err != nil {
		return nil, 0, nil, err
	}
	for _, def := range defs {
		v := values[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Sprintf("%s is not finite", def.Name))
			v = 0
		}
		res.Metrics[def.Name] = metric{Value: v, Unit: def.Unit}
	}
	res.Correct = len(errs) == 0
	report(w, len(all), defs, res, errs)
	return res, len(all), spans, nil
}

// repeat spawns the run's repetitions until it has measured for
// o.seconds: untraced ones, at least minReps, for the end-to-end metrics;
// or one untraced one followed by at least one traced one for the
// per-layer metrics. A repetition starts only when one more of the same
// kind, at its median length, still fits.
func repeat(w workload, o options) (untraced, traced []*repResult, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+deadlineSlack)
	defer cancel()
	start := time.Now()
	var untracedDurs, tracedDurs []float64
	fits := func(durs []float64) bool {
		return time.Since(start).Seconds()+median(durs) <= float64(o.seconds)
	}
	spawn := func(tracedRep bool) error {
		t := time.Now()
		r, err := spawnChild(ctx, w, o.seed, len(untraced)+len(traced), tracedRep)
		if err != nil {
			return err
		}
		d := time.Since(t).Seconds()
		if tracedRep {
			traced, tracedDurs = append(traced, r), append(tracedDurs, d)
		} else {
			untraced, untracedDurs = append(untraced, r), append(untracedDurs, d)
		}
		return nil
	}
	if !o.traced {
		for err == nil && (len(untraced) < minReps || fits(untracedDurs)) {
			err = spawn(false)
		}
		return untraced, nil, err
	}
	if err = spawn(false); err != nil {
		return nil, nil, err
	}
	for err == nil && (len(traced) == 0 || fits(tracedDurs)) {
		err = spawn(true)
	}
	return untraced, traced, err
}

// endToEndValues pools the untraced repetitions' samples into the
// end-to-end metrics and prints the job latency tail on standard error.
func endToEndValues(w workload, reps []*repResult) map[string]float64 {
	var walls, setup, rss, alloc, jobs []float64
	for _, r := range reps {
		walls, rss, alloc = append(walls, r.Wall), append(rss, r.RSSMB), append(alloc, r.AllocMB)
		setup = append(setup, r.Setup...)
		jobs = append(jobs, r.Jobs...)
	}
	tail := "no percentile has ten samples beyond it"
	if p, ok := tailPercentile(len(jobs)); ok {
		tail = fmt.Sprintf("p%g %.6g s", p, percentile(jobs, p))
	}
	fmt.Fprintf(os.Stderr, "%s: job latency tail %s (n=%d)\n", w.name, tail, len(jobs))
	return map[string]float64{
		"wall_s":            median(walls),
		"setup_s":           median(setup),
		"peak_rss_mb":       median(rss),
		"alloc_mb":          median(alloc),
		"job_latency_p50_s": median(jobs),
	}
}

// layerValues takes each per-layer metric's median over the traced
// repetitions, and the tracing overhead against the untraced one.
func layerValues(untraced *repResult, traced []*repResult) map[string]float64 {
	values := map[string]float64{}
	for name := range traced[0].Layers {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.Layers[name])
		}
		values[name] = median(xs)
	}
	var walls []float64
	for _, r := range traced {
		walls = append(walls, r.Wall)
	}
	values["bench.trace_overhead"] = median(walls)/untraced.Wall - 1
	return values
}

// report prints a run's metrics and any check failures on standard error.
func report(w workload, reps int, defs []metricDef, res *result, errs []string) {
	fmt.Fprintf(os.Stderr, "%s: %d repetitions, %d of %d operations failed\n", w.name, reps, res.Failed, res.Attempted)
	for _, def := range defs {
		fmt.Fprintf(os.Stderr, "  %-24s %14.6g %s\n", def.Name, res.Metrics[def.Name].Value, def.Unit)
	}
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", e)
	}
}

// spawnChild re-executes the benchmark for one repetition and decodes its
// report.
func spawnChild(ctx context.Context, w workload, seed int64, rep int, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-rep", strconv.Itoa(rep), "-trace", mode)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	buf, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition %d: %w", rep, err)
	}
	var r repResult
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("repetition %d: %w", rep, err)
	}
	return &r, nil
}

// childMain runs one repetition in a scratch directory under workRoot and
// prints its repResult as JSON.
func childMain(name string, seed int64, rep int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workRoot, w.name+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	var r *repResult
	switch {
	case traced:
		r, err = tracedRep(ctx, w, seed, rep, dir)
	case w.jobs > 0:
		var jobs []drillJob
		if r, jobs, err = drillRep(ctx, w, seed, dir, nil, 0); err == nil && rep == 0 {
			if err := checkIdentity(ctx, w, seed, jobs, dir, nil, 0); err != nil {
				r.Errors = append(r.Errors, err.Error())
			}
		}
	default:
		r, err = batchRep(ctx, w, seed, dir)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}
