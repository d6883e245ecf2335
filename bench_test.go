// Package bench is the paper's evaluation harness: one benchmark per table
// and figure. Each benchmark regenerates its figure through the same
// internal/figures code the CLI uses and reports the headline values as
// benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction in one run. Day-simulation figures (6-9,
// line-card table, headline) share a single cached set of runs.
package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"insomnia/internal/analytic"
	"insomnia/internal/campaign"
	"insomnia/internal/crosstalk"
	"insomnia/internal/dsl"
	"insomnia/internal/figures"
	"insomnia/internal/runner"
	"insomnia/internal/sim"
	"insomnia/internal/testbed"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

var (
	dayOnce sync.Once
	dayRuns *figures.DayRuns
	dayErr  error
)

// day lazily runs the §5 scenario once for all day-based benchmarks. The
// eight schemes fan out over the campaign's worker pool, so the fixture
// costs roughly one Optimal run of wall-clock instead of the serial sum.
func day(b *testing.B) *figures.DayRuns {
	b.Helper()
	dayOnce.Do(func() {
		dayErr = figures.RunDays(context.Background(), figures.DaySpec([]int64{1}), campaign.Options{},
			func(r *figures.DayRuns) error {
				dayRuns = r
				return nil
			})
	})
	if dayErr != nil {
		b.Fatal(dayErr)
	}
	return dayRuns
}

// BenchmarkSchemeComparisonSerial and ...Parallel measure the experiment
// runner itself: the same four-scheme comparison over one shared scenario,
// scheduled on 1 worker vs GOMAXPROCS workers. The per-scheme results are
// identical (runner_test.go proves it); only wall-clock differs.
func benchSchemeComparison(b *testing.B, workers int) {
	tr, tp := benchScenario(b)
	schemes := []sim.Scheme{sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]runner.Job, len(schemes))
		for j, sc := range schemes {
			jobs[j] = runner.Job{Name: sc.String(), Config: sim.Config{Trace: tr, Topo: tp, Scheme: sc, Seed: 2}}
		}
		outs := (runner.Runner{Workers: workers}).Run(context.Background(), jobs)
		if err := runner.FirstErr(outs); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(outs[3].Result.SavingsVs(outs[0].Result)*100, "bh2k-savings-%")
	}
}

func BenchmarkSchemeComparisonSerial(b *testing.B)   { benchSchemeComparison(b, 1) }
func BenchmarkSchemeComparisonParallel(b *testing.B) { benchSchemeComparison(b, 0) }

func BenchmarkFig2_ResidentialUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig2(400, 1)
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, y := range series[0].Y {
			if y > peak {
				peak = y
			}
		}
		b.ReportMetric(peak, "peak-util-%")
	}
}

func BenchmarkFig3_APUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := figures.Fig3(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Y[16], "peak-hour-util-%")
	}
}

func BenchmarkFig4_GapHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.DefaultOfficeConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		h := tr.GapHistogram(16*3600, 17*3600)
		b.ReportMetric(h.FractionBelow(60)*100, "idle-below-60s-%")
	}
}

func BenchmarkFig5_SwitchSleepProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig5(24, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		// The 8-switch first-card probability is the figure's anchor.
		b.ReportMetric(series[2].Y[0], "k8-card1-sleep-prob")
	}
}

func BenchmarkFig6_EnergySavings(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		series := figures.Fig6(runs)
		for _, s := range series {
			if s.Name == sim.BH2KSwitch.String() {
				var peak float64
				for h := 11; h < 19; h++ {
					peak += s.Y[h]
				}
				b.ReportMetric(peak/8, "bh2k-peak-savings-%")
			}
		}
	}
}

func BenchmarkFig7_OnlineGateways(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig7(runs) {
			if s.Name == sim.BH2KSwitch.String() {
				var peak float64
				for h := 11; h < 19; h++ {
					peak += s.Y[h]
				}
				b.ReportMetric(peak/8, "bh2k-peak-online-gws")
			}
		}
	}
}

func BenchmarkFig8_ISPShare(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig8(runs) {
			if s.Name == sim.Optimal.String() {
				var mean float64
				for _, y := range s.Y {
					mean += y
				}
				b.ReportMetric(mean/float64(len(s.Y)), "optimal-isp-share-%")
			}
		}
	}
}

func BenchmarkFig9a_FCT(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig9a(runs) {
			if s.Name == sim.BH2KSwitch.String() {
				// Fraction of flows unaffected (<=0% increase); paper: ~98%.
				b.ReportMetric(s.Y[0]*100, "bh2k-flows-unaffected-%")
			}
		}
	}
}

func BenchmarkFig9b_Fairness(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		for _, s := range figures.Fig9b(runs) {
			if s.Name == sim.BH2KSwitch.String() {
				// Fraction of gateways whose online time dropped to zero
				// (x = -100); paper: ~25%.
				b.ReportMetric(s.Y[0]*100, "gateways-always-asleep-%")
			}
		}
	}
}

func BenchmarkFig10_DensitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := figures.Fig10(context.Background(), []int64{1}, []float64{1, 2, 5.6, 10}, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Y[1], "online-gws-at-density-2")
		b.ReportMetric(s.Y[2], "online-gws-at-density-5.6")
	}
}

func BenchmarkFig12_Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.Run(testbed.Config{UseBH2: true, Duration: 600, TimeScale: 0.002, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanSleeping, "bh2-sleeping-aps-of-9")
	}
}

func BenchmarkFig14_CrosstalkSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig14(1)
		if err != nil {
			b.Fatal(err)
		}
		// 62 Mbps fixed-600m series, half-off and 20-off anchors.
		s := series[1]
		b.ReportMetric(s.Y[6], "62M-600m-halfoff-speedup-%")
		b.ReportMetric(s.Y[len(s.Y)-1], "62M-600m-20off-speedup-%")
	}
}

func BenchmarkFig15_Attenuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := figures.Fig15(1)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, y := range series[1].Y {
			mean += y
		}
		b.ReportMetric(mean/float64(len(series[1].Y)), "mean-card-sigma-dB")
	}
}

func BenchmarkTableLineCards(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		t := figures.LineCardTable(runs)
		b.ReportMetric(t[sim.BH2KSwitch.String()], "bh2k-online-cards")
		b.ReportMetric(t[sim.Optimal.String()], "optimal-online-cards")
		b.ReportMetric(t[sim.SoI.String()], "soi-online-cards")
	}
}

func BenchmarkHeadlineSavings(b *testing.B) {
	runs := day(b)
	for i := 0; i < b.N; i++ {
		h := figures.Summarize(runs)
		b.ReportMetric(h.Savings[sim.BH2KSwitch.String()]*100, "bh2k-savings-%")
		b.ReportMetric(h.OptimalMargin*100, "optimal-margin-%")
		b.ReportMetric(h.WorldTWh, "world-TWh-per-year")
	}
}

func BenchmarkSoIBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.DefaultOfficeConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		h := tr.GapHistogram(16*3600, 17*3600)
		bound := analytic.SoISavingsBound(h, trace.Fig4Edges(), 60, 0.92)
		b.ReportMetric(bound*100, "soi-peak-bound-%")
	}
}

// --- ablations (the design choices docs/SCHEMES.md describes) ---

// benchScenario builds the §5.1 day scenario at seed 2.
func benchScenario(b *testing.B) (*trace.Trace, *topology.Topology) {
	b.Helper()
	sp, err := figures.DaySpec([]int64{2}).WithDefaults()
	if err != nil {
		b.Fatal(err)
	}
	tr, tp, err := campaign.BuildScenario(sp, 2)
	if err != nil {
		b.Fatal(err)
	}
	return tr, tp
}

func BenchmarkAblationBackup(b *testing.B) {
	tr, tp := benchScenario(b)
	for i := 0; i < b.N; i++ {
		with, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		without, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2NoBackup, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sim.MeanOver(with.OnlineGWs, 11, 19), "backup1-online-gws")
		b.ReportMetric(sim.MeanOver(without.OnlineGWs, 11, 19), "backup0-online-gws")
	}
}

func BenchmarkAblationSwitch(b *testing.B) {
	tr, tp := benchScenario(b)
	for i := 0; i < b.N; i++ {
		for _, sch := range []sim.Scheme{sim.SoI, sim.SoIKSwitch, sim.SoIFullSwitch} {
			res, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sch, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sim.MeanOver(res.OnlineCards, 11, 19), sch.String()+"-cards")
		}
	}
}

func BenchmarkAblationThresholds(b *testing.B) {
	tr, tp := benchScenario(b)
	for i := 0; i < b.N; i++ {
		for _, th := range []struct {
			name      string
			low, high float64
		}{
			{"paper-10-50", 0.10, 0.50},
			{"tight-05-30", 0.05, 0.30},
			{"loose-20-70", 0.20, 0.70},
		} {
			cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, Seed: 2}
			cfg.BH2.Low, cfg.BH2.High = th.low, th.high
			cfg.BH2.Backup = 1
			cfg.BH2.PeriodSec, cfg.BH2.JitterSec, cfg.BH2.EstWindow = 150, 30, 60
			cfg.BH2.WakeUpHome = true
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Wakeups), th.name+"-wakeups")
		}
	}
}

func BenchmarkAblationPeriod(b *testing.B) {
	tr, tp := benchScenario(b)
	for i := 0; i < b.N; i++ {
		for _, period := range []float64{60, 150, 300} {
			cfg := sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, Seed: 2}
			cfg.BH2.Low, cfg.BH2.High, cfg.BH2.Backup = 0.10, 0.50, 1
			cfg.BH2.PeriodSec, cfg.BH2.JitterSec, cfg.BH2.EstWindow = period, period/5, 60
			cfg.BH2.WakeUpHome = true
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Moves), "moves")
		}
	}
}

// BenchmarkAblationCentralized compares the §3.3 centralized-controller
// extension against distributed BH2 and the idealized Optimal.
func BenchmarkAblationCentralized(b *testing.B) {
	tr, tp := benchScenario(b)
	for i := 0; i < b.N; i++ {
		base, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.NoSleep, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		cen, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.Centralized, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cen.SavingsVs(base)*100, "centralized-savings-%")
		b.ReportMetric(sim.MeanOver(cen.OnlineGWs, 11, 19), "centralized-online-gws")
	}
}

// BenchmarkAblationWakeTime compares the constant 60 s wake against the
// measured distribution (up to 3 min resyncs).
func BenchmarkAblationWakeTime(b *testing.B) {
	tr, tp := benchScenario(b)
	for i := 0; i < b.N; i++ {
		fixed, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		random, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch, Seed: 2, RandomWake: true})
		if err != nil {
			b.Fatal(err)
		}
		base, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.NoSleep, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fixed.SavingsVs(base)*100, "fixed-wake-savings-%")
		b.ReportMetric(random.SavingsVs(base)*100, "random-wake-savings-%")
	}
}

// BenchmarkAblationKSize sweeps the switch size on an 8-card DSLAM.
func BenchmarkAblationKSize(b *testing.B) {
	tr, tp := benchScenario(b)
	shelf := dsl.DSLAM{Cards: 8, PortsPerCard: 6}
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 4, 8} {
			res, err := sim.Run(sim.Config{
				Trace: tr, Topo: tp, Scheme: sim.BH2KSwitch,
				Seed: 2, DSLAM: shelf, K: k,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sim.MeanOver(res.OnlineCards, 11, 19), fmt.Sprintf("k%d-online-cards", k))
		}
	}
}

// BenchmarkEnergyProportionality compares the sleeping margin against what
// ideal energy-proportional hardware would save (§2.2's alternative).
func BenchmarkEnergyProportionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.DefaultOfficeConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		mean := 0.0
		for _, u := range traceMeanUtil(tr) {
			mean += u
		}
		mean /= 24
		v, err := analytic.EnergyProportionalSavings(mean, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v*100, "proportional-hw-savings-%")
	}
}

func traceMeanUtil(tr *trace.Trace) []float64 {
	return trace.MeanUtilization(tr.UtilizationMatrix(false, 24))
}

// BenchmarkCrosstalkSyncRate measures the PHY model itself: one full-bundle
// sync-rate computation (24 lines, ~2900 tones).
func BenchmarkCrosstalkSyncRate(b *testing.B) {
	lengths := crosstalk.TelcoLengths(24, 1)
	sys, err := crosstalk.NewSystem(crosstalk.DefaultPHY(), crosstalk.NewBundle25(), lengths)
	if err != nil {
		b.Fatal(err)
	}
	active := make([]bool, 24)
	for i := range active {
		active[i] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SyncRate(i%24, active, crosstalk.Profile62)
	}
}

// BenchmarkSimulatorDay measures raw simulator throughput: one full
// simulated day of SoI over the evaluation scenario per iteration.
func BenchmarkSimulatorDay(b *testing.B) {
	tr, tp := benchScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sim.SoI, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
