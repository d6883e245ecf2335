package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
)

// artifactSums holds the SHA-256 of one job's two artifacts.
type artifactSums struct {
	Summary string `json:"summary.csv"`
	Results string `json:"results.json"`
}

func sumArtifacts(summary, results []byte) artifactSums {
	h := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	return artifactSums{Summary: h(summary), Results: h(results)}
}

// digestFile pins the artifacts of each workload's first job per seed:
// workload name -> seed -> digests.
type digestFile map[string]map[int64]artifactSums

// digestPath is where -update-digests writes, relative to the repository
// root the benchmark runs from.
const digestPath = "perfbench/testdata/digests.json"

//go:embed testdata/digests.json
var pinnedDigests []byte

func loadDigests() (digestFile, error) {
	d := digestFile{}
	if err := json.Unmarshal(pinnedDigests, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestPath, err)
	}
	return d, nil
}

// check compares got against the digests pinned for (workload, seed), if
// any.
func (d digestFile) check(workload string, seed int64, got artifactSums) error {
	if want, ok := d[workload][seed]; ok && got != want {
		return fmt.Errorf("%s seed %d: artifacts differ from the pinned digests in %s", workload, seed, digestPath)
	}
	return nil
}

// merge writes d's entries over the digests already in the file at path.
func (d digestFile) merge(path string) error {
	all := digestFile{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for w, seeds := range d {
		if all[w] == nil {
			all[w] = map[int64]artifactSums{}
		}
		for s, sums := range seeds {
			all[w][s] = sums
		}
	}
	return writeJSON(path, all)
}

// checkArtifacts parses a job's results.json and checks its rows with
// checkRows, and that summary.csv has a header plus one line per row.
func checkArtifacts(sp dsl.Spec, summary, results []byte) ([]campaign.Row, error) {
	var rj struct {
		Cells  int            `json:"cells"`
		Failed []string       `json:"failed"`
		Rows   []campaign.Row `json:"rows"`
	}
	if err := json.Unmarshal(results, &rj); err != nil {
		return nil, fmt.Errorf("results.json: %w", err)
	}
	if len(rj.Failed) > 0 || rj.Cells != len(rj.Rows) {
		return nil, fmt.Errorf("results.json: %d rows for %d cells, failed %v", len(rj.Rows), rj.Cells, rj.Failed)
	}
	if lines := bytes.Count(summary, []byte("\n")); lines != len(rj.Rows)+1 {
		return nil, fmt.Errorf("summary.csv: %d lines for %d rows", lines, len(rj.Rows))
	}
	return rj.Rows, checkRows(sp, rj.Rows)
}

// checkRows checks the invariants every campaign row satisfies whatever the
// seed: one row per cell; energy positive and split into its user and ISP
// parts; no sleeping scheme drawing more than the no-sleep baseline of its
// seed; an always-on, failure-free baseline never waking; and the switch
// variants of one scheme (fixed, k-switch, full-switch) agreeing on
// everything gateway-side while ordering ISP energy full <= k <= fixed.
func checkRows(sp dsl.Spec, rows []campaign.Row) error {
	if want := len(sp.Schemes) * len(sp.Seeds); len(rows) != want {
		return fmt.Errorf("%d rows for %d cells", len(rows), want)
	}
	gws := float64(sp.Trace.Gateways)
	base := map[int64]campaign.Row{}
	for _, r := range rows {
		if r.Scheme == sim.NoSleep.String() {
			base[r.Seed] = r
		}
	}
	type family struct {
		seed int64
		name string
	}
	variants := map[family][3]*campaign.Row{}
	for i := range rows {
		r := &rows[i]
		cell := fmt.Sprintf("%s seed %d", r.Scheme, r.Seed)
		e := r.EnergyKWh
		switch {
		case !(e > 0) || math.IsInf(e, 0):
			return fmt.Errorf("%s: energy %v kWh", cell, e)
		case math.Abs(e-r.UserKWh-r.ISPKWh) > 1e-5*e:
			return fmt.Errorf("%s: energy %v != user %v + ISP %v", cell, e, r.UserKWh, r.ISPKWh)
		case r.MeanOnlineGWs < 0 || r.MeanOnlineGWs > gws:
			return fmt.Errorf("%s: %v mean online gateways of %v", cell, r.MeanOnlineGWs, gws)
		case (r.Availability != nil) != (sp.Failures != nil):
			return fmt.Errorf("%s: availability present %v with failures block %v", cell, r.Availability != nil, sp.Failures != nil)
		case r.Availability != nil && (*r.Availability < 0 || *r.Availability > 1):
			return fmt.Errorf("%s: availability %v", cell, *r.Availability)
		}
		if b, ok := base[r.Seed]; ok && e > b.EnergyKWh {
			return fmt.Errorf("%s: %v kWh exceeds the no-sleep baseline's %v", cell, e, b.EnergyKWh)
		}
		if r.Scheme == sim.NoSleep.String() && sp.Failures == nil && (r.Wakeups != 0 || r.MeanOnlineGWs != gws) {
			return fmt.Errorf("%s: always-on baseline woke %d times, %v of %v gateways online", cell, r.Wakeups, r.MeanOnlineGWs, gws)
		}
		name, sw, _ := strings.Cut(r.Scheme, "+")
		slot := map[string]int{"": 0, "k-switch": 1, "full-switch": 2}[sw]
		k := family{r.Seed, name}
		v := variants[k]
		v[slot] = r
		variants[k] = v
	}
	for k, v := range variants {
		var prev *campaign.Row
		for _, r := range v {
			if r == nil {
				continue
			}
			if prev != nil {
				if r.UserKWh != prev.UserKWh || r.Wakeups != prev.Wakeups || r.MeanOnlineGWs != prev.MeanOnlineGWs ||
					r.FCTP50 != prev.FCTP50 || r.FCTP95 != prev.FCTP95 {
					return fmt.Errorf("%s seed %d: %s and %s differ gateway-side", k.name, k.seed, prev.Scheme, r.Scheme)
				}
				if r.ISPKWh > prev.ISPKWh {
					return fmt.Errorf("%s seed %d: %s ISP %v kWh exceeds %s's %v", k.name, k.seed, r.Scheme, r.ISPKWh, prev.Scheme, prev.ISPKWh)
				}
			}
			prev = r
		}
	}
	return nil
}
