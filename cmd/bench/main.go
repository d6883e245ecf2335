// Command bench measures the repository's macro performance scenarios and
// writes one benchmark-trajectory record (BENCH_<date>.json, see
// internal/perf) so successive PRs leave comparable performance data:
//
//   - the §5 four-scheme day comparison over the office scenario (the same
//     workload as BenchmarkSchemeComparisonSerial in bench_test.go);
//   - the city scenario: a 10k-gateway / 100k-client residential metro
//     (trace.DefaultCityConfig over topology.GridCity), duration-bounded so
//     a trajectory point costs minutes, not hours — each scheme measured
//     serially and again with -shards lanes requested (identical results,
//     so the pair reads as a speedup measurement; BH² is not shard-local
//     and takes the serial engine both times, so its
//     city-sharded-BH2+k-switch pair reads about 1.0);
//   - the symmetric-city sweep (-collapse): the same metro scale with
//     `placement: symmetric`, run as a campaign with `collapse: off` and
//     `collapse: auto`, recording the symmetry-collapse speedup ratio
//     over the median of five collapsed runs;
//   - optionally (-xl) the million-client metro: 100k gateways / 1M
//     clients on the sharded engine, the scale target the sharding work
//     exists for.
//
// Usage:
//
//	bench [-out BENCH_2026-07-29.json] [-seed 2] [-shards NumCPU]
//	      [-city=true] [-city-gateways 10000] [-city-clients 100000] [-city-duration 1800]
//	      [-collapse=true] [-xl] [-xl-gateways 100000] [-xl-clients 1000000] [-xl-duration 600]
//	      [-comparison=true] [-cpuprofile cpu.out] [-memprofile mem.out]
//	      [-against auto|off|FILE] [-gate-tol 0.35] [-gate-wall-tol 3]
//
// With -against, bench becomes the CI regression gate: after measuring,
// it compares wall time and allocation per entry against a reference
// trajectory ("auto" picks the newest committed BENCH_*.json, excluding
// the file this run writes) and exits non-zero when any shared entry
// regressed beyond its tolerance. Allocations are machine-stable; wall
// time is only comparable on similar hardware, so cross-machine gates
// (CI vs a locally-recorded reference) pass a loose -gate-wall-tol.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"insomnia/internal/campaign"
	"insomnia/internal/cli"
	"insomnia/internal/dsl"
	"insomnia/internal/perf"
	"insomnia/internal/runner"
	"insomnia/internal/sim"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	out := flag.String("out", perf.DefaultPath(time.Now()), "trajectory output file")
	seed := flag.Int64("seed", 2, "RNG seed")
	comparison := flag.Bool("comparison", true, "run the four-scheme day comparison")
	city := flag.Bool("city", true, "run the city scenario")
	cityGWs := flag.Int("city-gateways", 10000, "city gateways")
	cityClients := flag.Int("city-clients", 100000, "city terminal devices")
	cityDur := flag.Float64("city-duration", 1800, "simulated seconds for the city runs")
	shards := flag.Int("shards", runtime.NumCPU(), "engine shards for the city-sharded entries (results identical at every value)")
	collapse := flag.Bool("collapse", true, "run the symmetric-city sweep full and collapsed (records the speedup ratio)")
	xl := flag.Bool("xl", false, "also run the million-client metro on the sharded engine")
	xlGWs := flag.Int("xl-gateways", 100000, "xl metro gateways")
	xlClients := flag.Int("xl-clients", 1000000, "xl metro terminal devices")
	xlDur := flag.Float64("xl-duration", 600, "simulated seconds for the xl run")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file at exit")
	against := flag.String("against", "off", `regression gate reference: "off", "auto" (newest committed BENCH_*.json) or a file`)
	gateTol := flag.Float64("gate-tol", 0.35, "tolerated fractional regression on allocated bytes (and wall time unless -gate-wall-tol is set)")
	gateWallTol := flag.Float64("gate-wall-tol", math.NaN(), "tolerated fractional wall-time regression; negative disables the wall check (use a loose value when the reference came from different hardware)")
	flag.Parse()
	if err := cli.RejectArgs("bench", flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	// cleanup is idempotent: deferred for the normal path, called
	// explicitly before Fatal (which skips defers) so a failed scenario
	// still leaves a parseable CPU profile.
	cleanup, err := perf.Profile(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()

	rep := perf.NewReport(time.Now().Format("2006-01-02"))
	err = func() error {
		if *comparison {
			if err := benchComparison(rep, *seed); err != nil {
				return err
			}
		}
		if *city {
			if err := benchCity(rep, *seed, *cityGWs, *cityClients, *cityDur, *shards); err != nil {
				return err
			}
		}
		if *collapse {
			if err := benchCollapse(rep, *seed, *cityGWs, *cityClients, *cityDur); err != nil {
				return err
			}
		}
		if *xl {
			if err := benchXL(rep, *seed, *xlGWs, *xlClients, *xlDur, *shards); err != nil {
				return err
			}
		}
		return rep.WriteFile(*out)
	}()
	if err != nil {
		cleanup()
		log.Fatal(err)
	}
	for _, e := range rep.Entries {
		log.Printf("%-28s %8.2fs  %6.1f MB alloc", e.Name, e.WallSeconds, float64(e.AllocBytes)/1e6)
	}
	log.Printf("wrote %s", *out)

	if *against != "off" && *against != "" {
		wallTol := *gateWallTol
		if math.IsNaN(wallTol) {
			wallTol = *gateTol
		}
		if err := gate(rep, *against, *out, wallTol, *gateTol); err != nil {
			cleanup()
			log.Fatal(err)
		}
	}
}

// gate compares the fresh report against a reference trajectory and
// errors when any shared entry regressed beyond its tolerance.
func gate(fresh *perf.Report, against, selfPath string, wallTol, allocTol float64) error {
	refPath := against
	if against == "auto" {
		var err error
		refPath, err = perf.NewestRecord(".", selfPath)
		if err != nil {
			return err
		}
	}
	ref, err := perf.ReadFile(refPath)
	if err != nil {
		return err
	}
	regs, skipped := perf.Compare(ref, fresh, wallTol, allocTol)
	// An unmatched entry is not a pass — it is coverage the gate lost
	// (renamed scenario, re-parameterized run, dropped measurement). Warn
	// loudly so a rename cannot silently retire a regression check.
	for _, s := range skipped {
		log.Printf("WARNING: gate skipped %s", s)
	}
	if len(regs) == 0 {
		log.Printf("regression gate ok vs %s (wall tol %.0f%%, alloc tol %.0f%%, %d entr(ies) skipped)",
			refPath, wallTol*100, allocTol*100, len(skipped))
		return nil
	}
	for _, r := range regs {
		log.Printf("REGRESSION %s", r)
	}
	return fmt.Errorf("%d entr(ies) regressed vs %s", len(regs), refPath)
}

// benchComparison mirrors BenchmarkSchemeComparisonSerial: one shared
// office-day scenario, four schemes on one worker.
func benchComparison(rep *perf.Report, seed int64) error {
	tr, err := trace.Generate(trace.DefaultSimConfig(seed))
	if err != nil {
		return err
	}
	g, err := topology.OverlapGraph(tr.Cfg.APs, topology.DefaultMeanInRange, seed)
	if err != nil {
		return err
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		return err
	}
	scenario := fmt.Sprintf("office-day: %d clients / %d gateways / %.0fs, seed %d",
		tr.Cfg.Clients, tr.Cfg.APs, tr.Cfg.Duration, seed)
	return rep.Measure("scheme-comparison-serial", scenario, func() (map[string]float64, error) {
		schemes := []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch}
		jobs := make([]runner.Job, len(schemes))
		for i, sc := range schemes {
			jobs[i] = runner.Job{Name: sc.String(), Config: sim.Config{Trace: tr, Topo: tp, Scheme: sc, Seed: seed}}
		}
		outs := (runner.Runner{Workers: 1}).Run(context.Background(), jobs)
		if err := runner.FirstErr(outs); err != nil {
			return nil, err
		}
		return map[string]float64{
			"flows":          float64(len(tr.Flows)),
			"keepalives":     float64(len(tr.Keepalives)),
			"soi_savings":    outs[1].Result.SavingsVs(outs[0].Result),
			"bh2k_savings":   outs[3].Result.SavingsVs(outs[0].Result),
			"bh2k_wakeups":   float64(outs[3].Result.Wakeups),
			"schemes_per_op": float64(len(schemes)),
		}, nil
	})
}

// cityFixture generates the metro workload and topology, measuring trace
// generation as its own trajectory entry under the given name.
func cityFixture(rep *perf.Report, name, scenario string, seed int64, gws, clients int, duration float64) (*trace.Trace, *topology.Topology, dsl.DSLAM, error) {
	cfg := trace.DefaultCityConfig(seed)
	cfg.APs, cfg.Clients, cfg.Duration = gws, clients, duration

	var tr *trace.Trace
	err := rep.Measure(name, scenario, func() (map[string]float64, error) {
		var err error
		tr, err = trace.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"flows":      float64(len(tr.Flows)),
			"keepalives": float64(len(tr.Keepalives)),
		}, nil
	})
	if err != nil {
		return nil, nil, dsl.DSLAM{}, err
	}
	g, err := topology.GridCity(gws, topology.DefaultMeanInRange, seed)
	if err != nil {
		return nil, nil, dsl.DSLAM{}, err
	}
	tp, err := topology.FromOverlap(g, tr.ClientAP)
	if err != nil {
		return nil, nil, dsl.DSLAM{}, err
	}
	// A metro head-end: enough 48-port cards for every gateway, card count
	// rounded to the k-switch group size.
	cards := (gws + 47) / 48
	if r := cards % 4; r != 0 {
		cards += 4 - r
	}
	return tr, tp, dsl.DSLAM{Cards: cards, PortsPerCard: 48}, nil
}

// benchCity runs the city scenario: trace generation is measured as its own
// entry, then NoSleep (baseline), SoI and BH2 each get a serial trajectory
// point and one with shards lanes requested ("city-sharded-*"; BH2 runs
// serially at every shard count). Serial and sharded results are
// byte-identical, so each pair is a pure speedup measurement; the recorded
// shards/gomaxprocs metrics say whether the machine could actually exploit
// the lanes.
func benchCity(rep *perf.Report, seed int64, gws, clients int, duration float64, shards int) error {
	scenario := fmt.Sprintf("city: %d clients / %d gateways / %.0fs, seed %d",
		clients, gws, duration, seed)
	tr, tp, shelf, err := cityFixture(rep, "city-trace-gen", scenario, seed, gws, clients, duration)
	if err != nil {
		return err
	}

	var base *sim.Result
	for _, v := range []struct {
		prefix string
		shards int
	}{
		{"city-", 0},
		{"city-sharded-", shards},
	} {
		for _, sc := range []sim.Scheme{sim.NoSleep, sim.SoI, sim.BH2KSwitch} {
			sc := sc
			err := rep.Measure(v.prefix+sc.String(), scenario, func() (map[string]float64, error) {
				res, err := sim.Run(sim.Config{
					Trace: tr, Topo: tp, Scheme: sc, Seed: seed, DSLAM: shelf, K: 4,
					Shards: v.shards,
				})
				if err != nil {
					return nil, err
				}
				m := perf.Parallelism(map[string]float64{
					"wakeups":         float64(res.Wakeups),
					"mean_online_gws": sim.MeanOver(res.OnlineGWs, 0, duration/3600),
				}, max(v.shards, 1))
				if sc == sim.NoSleep {
					if base == nil {
						base = res
					}
				} else if base != nil {
					m["savings"] = res.SavingsVs(base)
				}
				if res.Moves > 0 {
					m["moves"] = float64(res.Moves)
				}
				return m, nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// benchCollapse measures the symmetry-collapse pass end to end: one
// symmetric grid-city campaign (three collapsible schemes over the metro
// scale of the city entries), simulated full (`collapse: off`) and
// collapsed (`collapse: auto`). The two runs write byte-identical
// artifacts — pinned by the campaign tests — so the pair is a pure
// speedup measurement; the ratio is recorded as the collapsed entry's
// "speedup" metric, which perf.Compare gates as higher-is-better. The
// collapsed sweep takes a fraction of a second, so one timing of it swings
// the ratio widely: it runs collapsedReps times and the entry is the run
// with the median wall time.
func benchCollapse(rep *perf.Report, seed int64, gws, clients int, duration float64) error {
	spec := dsl.Spec{
		Name:     "bench-collapse",
		Schemes:  []string{"no-sleep", "SoI", "SoI+full-switch"},
		Seeds:    []int64{seed},
		Duration: duration,
		Trace: dsl.TraceSpec{
			Profile: "residential", Clients: clients, Gateways: gws,
			Placement: "symmetric",
		},
		Topology: dsl.TopoSpec{Kind: "grid-city", MeanInRange: 4.5},
		Outputs:  []string{"summary"},
	}
	scenario := fmt.Sprintf("symmetric city sweep: %d clients / %d gateways / %.0fs x %d schemes, seed %d",
		clients, gws, duration, len(spec.Schemes), seed)
	tmp, err := os.MkdirTemp("", "bench-collapse-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	run := func(mode, dir string) (*campaign.RunResult, error) {
		p, err := campaign.Compile(spec)
		if err != nil {
			return nil, err
		}
		// One worker, one shard: both runs measure the same serial pipeline,
		// so the ratio isolates the collapse itself.
		job, err := p.Submit(context.Background(), campaign.Options{
			Workers: 1, Shards: 1, OutDir: filepath.Join(tmp, dir), Collapse: mode,
		})
		if err != nil {
			return nil, err
		}
		return job.Wait()
	}
	err = rep.Measure("city-sweep-full", scenario, func() (map[string]float64, error) {
		if _, err := run("off", "off"); err != nil {
			return nil, err
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	fullWall := rep.Entries[len(rep.Entries)-1].WallSeconds
	var collapsed perf.Report
	for i := 0; i < collapsedReps; i++ {
		err = collapsed.Measure("city-sweep-collapsed", scenario, func() (map[string]float64, error) {
			res, err := run("auto", fmt.Sprintf("auto-%d", i))
			if err != nil {
				return nil, err
			}
			classes := 0.0
			for _, r := range res.Rows {
				if r.CollapsedClasses > 0 {
					classes = float64(r.CollapsedClasses)
				}
			}
			if classes == 0 {
				return nil, fmt.Errorf("symmetric sweep did not collapse")
			}
			return map[string]float64{"collapsed_classes": classes}, nil
		})
		if err != nil {
			return err
		}
	}
	runs := collapsed.Entries
	sort.Slice(runs, func(i, j int) bool { return runs[i].WallSeconds < runs[j].WallSeconds })
	e := runs[len(runs)/2]
	e.Metrics["speedup"] = fullWall / e.WallSeconds
	rep.Entries = append(rep.Entries, e)
	return nil
}

// collapsedReps is how many times benchCollapse times the collapsed sweep.
const collapsedReps = 5

// benchXL runs the million-client metro once, on the sharded engine only —
// the serial run at this scale is the thing the sharding work retires.
func benchXL(rep *perf.Report, seed int64, gws, clients int, duration float64, shards int) error {
	scenario := fmt.Sprintf("xl-metro: %d clients / %d gateways / %.0fs, seed %d",
		clients, gws, duration, seed)
	tr, tp, shelf, err := cityFixture(rep, "xl-trace-gen", scenario, seed, gws, clients, duration)
	if err != nil {
		return err
	}
	return rep.Measure("xl-sharded-"+sim.SoI.String(), scenario, func() (map[string]float64, error) {
		res, err := sim.Run(sim.Config{
			Trace: tr, Topo: tp, Scheme: sim.SoI, Seed: seed, DSLAM: shelf, K: 4,
			Shards: shards,
		})
		if err != nil {
			return nil, err
		}
		return perf.Parallelism(map[string]float64{
			"wakeups":         float64(res.Wakeups),
			"mean_online_gws": sim.MeanOver(res.OnlineGWs, 0, duration/3600),
		}, max(shards, 1)), nil
	})
}
