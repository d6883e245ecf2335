// Command figures regenerates every table and figure of the paper's
// evaluation section into an output directory (CSV per figure plus a
// summary on stdout).
//
// Usage:
//
//	figures [-out out] [-seed 1] [-runs 1] [-fig all|2|3|4|5|6|7|8|9a|9b|10|12|14|15|table|headline]
//
// The -runs flag simulates seeds seed, seed+1, ... seed+runs-1. Fig 10
// averages over all of them and adds standard-deviation error bars (the
// paper averaged 10 runs). The day figures (6-9, table, headline) plot
// the first seed's runs; each further seed only logs its BH2+k-switch and
// optimal savings to stderr, to show the spread.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"insomnia/internal/campaign"
	"insomnia/internal/cli"
	"insomnia/internal/figures"
	"insomnia/internal/perf"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/testbed"
)

// figIDs lists the -fig values.
var figIDs = []string{"all", "2", "3", "4", "5", "6", "7", "8", "9a", "9b", "10", "12", "14", "15", "table", "headline"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	out := flag.String("out", "out", "output directory")
	seed := flag.Int64("seed", 1, "base RNG seed")
	runs := flag.Int("runs", 1, "seeds to simulate: Fig 10 averages them, the day figures plot the first and log the rest's savings")
	fig := flag.String("fig", "all", "which figure to regenerate: "+strings.Join(figIDs, "|"))
	liveScale := flag.Float64("livescale", 0.005, "testbed wall-seconds per virtual second (fig 12)")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	shards := flag.Int("shards", 0, "engine shards per simulation (0 = auto: the cores the worker pool leaves idle; results identical at every value)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file at exit")
	flag.Parse()
	err := cli.RejectArgs("figures", flag.Args())
	if err == nil && !slices.Contains(figIDs, *fig) {
		err = fmt.Errorf("figures: unknown -fig %q", *fig)
	}
	if err == nil && *runs < 1 {
		err = fmt.Errorf("figures: -runs must be at least 1, got %d", *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	// check routes every fatal path through this idempotent cleanup so the
	// CPU profile is finalized even on errors (log.Fatal skips defers).
	cleanup, err := perf.Profile(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	cleanupProfiles = cleanup

	check(os.MkdirAll(*out, 0o755))
	want := func(name string) bool { return *fig == "all" || *fig == name }
	ctx := context.Background()
	opts := campaign.Options{Workers: *workers, Shards: *shards}
	seeds := make([]int64, *runs)
	for i := range seeds {
		seeds[i] = *seed + int64(i)
	}

	var day *figures.DayRuns
	needDay := want("6") || want("7") || want("8") || want("9a") || want("9b") || want("table") || want("headline")
	if needDay {
		log.Printf("running day simulations (%d run(s), 8 schemes; the Optimal ILP dominates runtime)...", *runs)
		check(figures.RunDays(ctx, figures.DaySpec(seeds), opts, func(r *figures.DayRuns) error {
			if day == nil {
				day = r
				return nil
			}
			h := figures.Summarize(r)
			log.Printf("  seed %d: BH2+k savings %.1f%%, optimal %.1f%%",
				r.Seed, h.Savings[sim.BH2KSwitch.String()]*100, h.OptimalMargin*100)
			return nil
		}))
	}

	if want("2") {
		series, err := figures.Fig2(2000, *seed)
		check(err)
		writeSeries(*out, "fig2_residential_utilization.csv", "hour", series)
	}
	if want("3") {
		s, err := figures.Fig3(*seed)
		check(err)
		writeSeries(*out, "fig3_ap_utilization.csv", "hour", []stats.Series{s})
		fmt.Print(figures.RenderASCII(s, 40))
	}
	if want("4") {
		labels, fracs, err := figures.Fig4(*seed)
		check(err)
		f := create(*out, "fig4_gap_histogram.csv")
		check(figures.WriteHistogramCSV(f, labels, fracs))
		f.Close()
	}
	if want("5") {
		for _, p := range []float64{0.5, 0.25} {
			series, err := figures.Fig5(24, p)
			check(err)
			writeSeries(*out, fmt.Sprintf("fig5_card_sleep_p%02.0f.csv", p*100), "card", series)
		}
	}
	if want("6") {
		writeSeries(*out, "fig6_energy_savings.csv", "hour", figures.Fig6(day))
	}
	if want("7") {
		writeSeries(*out, "fig7_online_gateways.csv", "hour", figures.Fig7(day))
	}
	if want("8") {
		writeSeries(*out, "fig8_isp_share.csv", "hour", figures.Fig8(day))
	}
	if want("9a") {
		writeSeries(*out, "fig9a_fct_cdf.csv", "fct-increase-pct", figures.Fig9a(day))
		writeSeries(*out, "fig9a_fct_cdf_contention.csv", "fct-increase-pct", figures.Fig9aContention(day))
	}
	if want("9b") {
		writeSeries(*out, "fig9b_ontime_cdf.csv", "ontime-variation-pct", figures.Fig9b(day))
	}
	if want("10") {
		s, err := figures.Fig10(ctx, seeds, nil, opts)
		check(err)
		writeSeries(*out, "fig10_density_sweep.csv", "mean-available-gateways", []stats.Series{s})
		fmt.Print(figures.RenderASCII(s, 40))
	}
	if want("12") {
		log.Printf("running live testbed (twice: SoI then BH2)...")
		var series []stats.Series
		for _, mode := range []bool{false, true} {
			res, err := testbed.Run(testbed.Config{UseBH2: mode, Seed: *seed, TimeScale: *liveScale})
			check(err)
			name := "SoI"
			if mode {
				name = "BH2"
			}
			s := stats.Series{Name: name}
			for i := 0; i < len(res.OnlineSeries); i += 60 {
				s.X = append(s.X, float64(i)/60)
				var sum int
				n := 0
				for j := i; j < i+60 && j < len(res.OnlineSeries); j++ {
					sum += res.OnlineSeries[j]
					n++
				}
				s.Y = append(s.Y, float64(sum)/float64(n))
			}
			log.Printf("  %s: mean online %.2f of 9 (paper: SoI 5.28, BH2 3.54); %d gateway wakeups, %d BH2 moves, %d transport errors",
				name, res.MeanOnline, res.Wakeups, res.Moves, res.TrafficErrors)
			series = append(series, s)
		}
		writeSeries(*out, "fig12_testbed_online_aps.csv", "minute", series)
	}
	if want("14") {
		series, err := figures.Fig14(*seed)
		check(err)
		writeSeries(*out, "fig14_crosstalk_speedup.csv", "inactive-lines", series)
	}
	if want("15") {
		series, err := figures.Fig15(*seed)
		check(err)
		writeSeries(*out, "fig15_attenuations.csv", "card", series)
	}
	if want("table") {
		t := figures.LineCardTable(day)
		f := create(*out, "table_online_linecards.csv")
		fmt.Fprintln(f, "scheme,online-cards-11-19h")
		for _, k := range sortedKeys(t) {
			fmt.Fprintf(f, "%s,%.2f\n", k, t[k])
		}
		f.Close()
		fmt.Println("\nOnline line cards during peak hours (paper: optimal 1, BH2+full 2, BH2+k 2.88, SoI+full 3, SoI+k 3.74, SoI 3.99):")
		for _, k := range sortedKeys(t) {
			fmt.Printf("  %-24s %.2f\n", k, t[k])
		}
	}
	if want("headline") {
		h := figures.Summarize(day)
		fmt.Println("\nHeadline (§5.4):")
		for _, k := range sortedKeys(h.Savings) {
			fmt.Printf("  %-24s %5.1f%% day-average savings\n", k, h.Savings[k]*100)
		}
		fmt.Printf("  optimal margin          %5.1f%% (paper: 80%%)\n", h.OptimalMargin*100)
		fmt.Printf("  BH2 user/ISP split      %.0f%% / %.0f%% (paper: 2/3 vs 1/3)\n", h.UserShare*100, h.ISPShare*100)
		fmt.Printf("  world-wide extrapolation %.1f TWh/yr (paper: ~33)\n", h.WorldTWh)
	}
	log.Printf("wrote outputs to %s/", *out)
}

func writeSeries(dir, name, xLabel string, series []stats.Series) {
	f := create(dir, name)
	check(stats.WriteSeriesCSV(f, xLabel, series))
	f.Close()
	log.Printf("wrote %s", filepath.Join(dir, name))
}

func create(dir, name string) *os.File {
	f, err := os.Create(filepath.Join(dir, name))
	check(err)
	return f
}

// cleanupProfiles finalizes -cpuprofile/-memprofile output; main replaces
// it once profiling is configured (it is idempotent and safe to call more
// than once).
var cleanupProfiles = func() {}

func check(err error) {
	if err != nil {
		cleanupProfiles()
		log.Fatal(err)
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
