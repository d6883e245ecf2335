package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"insomnia/internal/perf"
)

// recordDir holds the committed records, relative to the repository root.
const recordDir = "perfbench/records"

// record is one benchmark record in the repository's record format, a
// perf.Report with one entry per workload whose Metrics hold every metric
// by name, plus the machine and run settings it was measured with.
type record struct {
	perf.Report
	NumCPU  int   `json:"nproc"`
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"`
}

func newRecord(o options) *record {
	return &record{
		Report:  *perf.NewReport(time.Now().Format("2006-01-02")),
		NumCPU:  runtime.NumCPU(),
		Seed:    o.seed,
		Seconds: o.seconds,
	}
}

// add stores one workload's metrics, with the repetition count under
// "reps" or "traced_reps". An untraced run also fills the entry's wall
// time and allocation, which perf.Compare reads.
func (r *record) add(w workload, res *result, reps int, traced bool) {
	e := perf.Entry{
		Name:     w.name,
		Scenario: fmt.Sprintf("perfbench/workloads/%s.yaml seed %d", w.name, r.Seed),
		Metrics:  map[string]float64{},
	}
	for name, m := range res.Metrics {
		e.Metrics[name] = m.Value
	}
	if traced {
		e.Metrics["traced_reps"] = float64(reps)
	} else {
		e.Metrics["reps"] = float64(reps)
		e.WallSeconds = e.Metrics["wall_s"]
		e.AllocBytes = uint64(e.Metrics["alloc_mb"] * 1e6)
	}
	r.Entries = append(r.Entries, e)
}

// merge writes r to path, keeping what an earlier run wrote there that
// this run did not measure, so an untraced and a traced run can fill one
// record.
func (r *record) merge(path string) error {
	old, err := readRecord(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if old != nil {
		for _, o := range old.Entries {
			i := slices.IndexFunc(r.Entries, func(e perf.Entry) bool { return e.Name == o.Name })
			if i < 0 {
				r.Entries = append(r.Entries, o)
				continue
			}
			e := &r.Entries[i]
			if e.Scenario != o.Scenario {
				return fmt.Errorf("%s: %s ran %q there, %q here", path, o.Name, o.Scenario, e.Scenario)
			}
			for k, v := range o.Metrics {
				if _, ok := e.Metrics[k]; !ok {
					e.Metrics[k] = v
				}
			}
			if e.WallSeconds == 0 {
				e.WallSeconds, e.AllocBytes = o.WallSeconds, o.AllocBytes
			}
		}
	}
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
	return writeJSON(path, r)
}

func readRecord(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// compare checks every end-to-end metric of every workload in fresh
// against ref: a metric regressed when it is worse, in its direction, by
// more than its bound as a share of the reference value. A workload
// missing from ref or run on other seeds, or a metric missing on either
// side, is not compared but named in skipped, so a rename cannot silently
// retire a check. Both lists are sorted.
func compare(ref, fresh *record, bounds []metricDef) (regs, skipped []string) {
	old := map[string]perf.Entry{}
	for _, e := range ref.Entries {
		old[e.Name] = e
	}
	for _, f := range fresh.Entries {
		r, ok := old[f.Name]
		switch {
		case !ok:
			skipped = append(skipped, f.Name+" (not in reference)")
			continue
		case r.Scenario != f.Scenario:
			skipped = append(skipped, f.Name+" (scenario changed)")
			continue
		}
		for _, b := range bounds {
			fv, fok := f.Metrics[b.Name]
			rv, rok := r.Metrics[b.Name]
			if !fok || !rok {
				skipped = append(skipped, fmt.Sprintf("%s/%s (reference has it: %v, this run: %v)", f.Name, b.Name, rok, fok))
				continue
			}
			worse := fv > rv*(1+b.Bound)
			if b.Better == "higher" {
				worse = fv < rv*(1-b.Bound)
			}
			if worse {
				regs = append(regs, fmt.Sprintf("%s/%s: %.6g -> %.6g %s (%+.1f%%, bound %.0f%%)",
					f.Name, b.Name, rv, fv, b.Unit, (fv/rv-1)*100, b.Bound*100))
			}
		}
	}
	sort.Strings(regs)
	sort.Strings(skipped)
	return regs, skipped
}

// gate compares rec with a reference record under BENCHMARK.json's bounds
// and fails on any regression. "auto" picks the newest record in
// recordDir other than self, the file this run wrote.
func gate(rec *record, against, self string, bounds []metricDef) error {
	if against == "auto" {
		var err error
		if against, err = perf.NewestRecord(recordDir, self); err != nil {
			return err
		}
	}
	ref, err := readRecord(against)
	if err != nil {
		return err
	}
	regs, skipped := compare(ref, rec, bounds)
	for _, s := range skipped {
		fmt.Fprintf(os.Stderr, "WARNING: not compared: %s\n", s)
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
	}
	if len(regs) > 0 {
		return fmt.Errorf("%d metric(s) regressed against %s", len(regs), against)
	}
	fmt.Fprintf(os.Stderr, "no regression against %s\n", against)
	return nil
}
