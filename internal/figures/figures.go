// Package figures regenerates every table and figure of the paper's
// evaluation from the reproduction's own components. Each FigN function
// returns plain data series so the CLI (cmd/figures), the benchmark harness
// (bench_test.go) and the examples all share one implementation. The
// simulated figures are campaign specs (DaySpec, Fig10's density sweep)
// run through campaign.Plan.Simulate, plus pure reducers over the
// Results it hands back.
package figures

import (
	"context"
	"fmt"
	"math"

	"insomnia/internal/analytic"
	"insomnia/internal/campaign"
	"insomnia/internal/crosstalk"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

// DefaultSchemes is the scheme set the paper's figures use.
var DefaultSchemes = []sim.Scheme{
	sim.NoSleep, sim.SoI, sim.SoIKSwitch, sim.SoIFullSwitch,
	sim.BH2KSwitch, sim.BH2FullSwitch, sim.BH2NoBackup, sim.Optimal,
}

// DaySpec is the §5.1 evaluation scenario as a campaign spec: a UCSD-like
// office day with uniform client placement, 272 clients on 40 gateways of
// an overlap topology with on average 5.6 gateways in range of a client,
// under every scheme of DefaultSchemes at each seed. No-sleep is among
// them because Figs 6 and 8 and the headline measure against it.
func DaySpec(seeds []int64) dsl.Spec {
	sp := dsl.Spec{
		Name:     "day",
		Seeds:    seeds,
		Trace:    dsl.TraceSpec{Profile: "office", Clients: 272, Gateways: 40},
		Topology: dsl.TopoSpec{Kind: "overlap", MeanInRange: topology.DefaultMeanInRange},
	}
	for _, sc := range DefaultSchemes {
		sp.Schemes = append(sp.Schemes, sc.String())
	}
	return sp
}

// DayRuns holds one seed's full-day simulation per scheme: Figs 6, 7, 8,
// 9 and the §5.2.3 table all read from it.
type DayRuns struct {
	Seed    int64
	Results map[sim.Scheme]*sim.Result
}

// RunDays simulates a day spec (DaySpec, or a smaller one without sweeps)
// and hands fn each seed's runs in seed order, as soon as that seed's
// last cell is in, so a caller that keeps only one seed's runs holds no
// more. Results are identical at every Options.Workers and Shards value.
func RunDays(ctx context.Context, sp dsl.Spec, opts campaign.Options, fn func(*DayRuns) error) error {
	plan, err := campaign.Compile(sp)
	if err != nil {
		return err
	}
	var day *DayRuns
	err = plan.Simulate(ctx, opts, func(c campaign.Cell, res *sim.Result) error {
		if day != nil && day.Seed != c.Seed {
			if err := fn(day); err != nil {
				return err
			}
			day = nil
		}
		if day == nil {
			day = &DayRuns{Seed: c.Seed, Results: map[sim.Scheme]*sim.Result{}}
		}
		day.Results[c.Scheme] = res
		return nil
	})
	if err != nil {
		return err
	}
	return fn(day)
}

// hourly reduces a per-bin series to 24 hourly means by mapping each bin
// onto its proportional hour. Series with fewer than 24 bins (short
// traces) land each bin in the right hour instead of silently averaging
// empty windows; hours with no bins report 0.
func hourly(f func(i int) float64, bins int) []float64 {
	out := make([]float64, 24)
	if bins <= 0 {
		return out
	}
	var ws [24]stats.Welford
	for i := 0; i < bins; i++ {
		ws[i*24/bins].Add(f(i))
	}
	for h := range out {
		out[h] = ws[h].Mean()
	}
	return out
}

func hours() []float64 {
	x := make([]float64, 24)
	for i := range x {
		x[i] = float64(i) + 0.5
	}
	return x
}

// Fig2 regenerates the residential utilization curves: mean and median
// downlink utilization plus mean uplink utilization by hour, for n
// subscribers.
func Fig2(n int, seed int64) ([]stats.Series, error) {
	tr, err := trace.Generate(trace.DefaultResidentialConfig(n, seed))
	if err != nil {
		return nil, err
	}
	down := tr.UtilizationMatrix(false, 24)
	up := tr.UtilizationMatrix(true, 24)
	return []stats.Series{
		{Name: "downlink-avg", X: hours(), Y: scale(trace.MeanUtilization(down), 100)},
		{Name: "downlink-median", X: hours(), Y: scale(trace.MedianUtilization(down), 100)},
		{Name: "uplink-avg", X: hours(), Y: scale(trace.MeanUtilization(up), 100)},
	}, nil
}

// Fig3 regenerates the office trace's average AP downlink utilization.
func Fig3(seed int64) (stats.Series, error) {
	tr, err := trace.Generate(trace.DefaultOfficeConfig(seed))
	if err != nil {
		return stats.Series{}, err
	}
	m := tr.UtilizationMatrix(false, 24)
	return stats.Series{Name: "AP-utilization", X: hours(), Y: scale(trace.MeanUtilization(m), 100)}, nil
}

// Fig4 regenerates the peak-hour inter-packet-gap histogram: per-bin
// fraction of idle time, with the paper's bin labels.
func Fig4(seed int64) (labels []string, fracs []float64, err error) {
	tr, err := trace.Generate(trace.DefaultOfficeConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	h := tr.GapHistogram(16*3600, 17*3600)
	for i := 0; i < h.Bins(); i++ {
		labels = append(labels, h.Label(i))
	}
	return labels, scale(h.Fractions(), 100), nil
}

// Fig5 computes Eq (2) card-sleep probabilities for k in {2,4,8}, m modems
// per card and per-line activity p — one of the paper's two panels.
func Fig5(m int, p float64) ([]stats.Series, error) {
	var out []stats.Series
	for _, k := range []int{2, 4, 8} {
		s := stats.Series{Name: fmt.Sprintf("%d-switch", k)}
		for l := 1; l <= 8; l++ {
			s.X = append(s.X, float64(l))
			if l > k {
				s.Y = append(s.Y, 0)
				continue
			}
			v, err := analytic.CardSleepProbability(l, k, m, p)
			if err != nil {
				return nil, err
			}
			s.Y = append(s.Y, v)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig6 reduces day runs to hourly energy savings (%) vs no-sleep for the
// paper's four plotted schemes.
func Fig6(runs *DayRuns) []stats.Series {
	base := runs.Results[sim.NoSleep]
	var out []stats.Series
	for _, sch := range []sim.Scheme{sim.Optimal, sim.SoI, sim.SoIKSwitch, sim.BH2KSwitch} {
		r := runs.Results[sch]
		if r == nil {
			continue
		}
		sav := sim.SavingsSeries(r, base)
		out = append(out, stats.Series{
			Name: sch.String(), X: hours(),
			Y: hourly(func(i int) float64 { return sav[i] * 100 }, len(sav)),
		})
	}
	return out
}

// Fig7 reduces day runs to hourly online gateway counts.
func Fig7(runs *DayRuns) []stats.Series {
	var out []stats.Series
	for _, sch := range []sim.Scheme{sim.SoI, sim.BH2KSwitch, sim.BH2NoBackup, sim.Optimal} {
		r := runs.Results[sch]
		if r == nil {
			continue
		}
		out = append(out, stats.Series{
			Name: sch.String(), X: hours(),
			Y: hourly(func(i int) float64 { return r.OnlineGWs.MeanAt(i) }, r.OnlineGWs.Bins()),
		})
	}
	return out
}

// Fig8 reduces day runs to the hourly ISP share of total savings (%).
func Fig8(runs *DayRuns) []stats.Series {
	base := runs.Results[sim.NoSleep]
	var out []stats.Series
	for _, sch := range []sim.Scheme{sim.Optimal, sim.SoIKSwitch, sim.BH2KSwitch, sim.SoI} {
		r := runs.Results[sch]
		if r == nil {
			continue
		}
		share := sim.ISPShareSeries(r, base)
		out = append(out, stats.Series{
			Name: sch.String(), X: hours(),
			Y: hourly(func(i int) float64 { return share[i] * 100 }, len(share)),
		})
	}
	return out
}

// Fig9a builds the CDF of flow-completion-time increase (%) vs no-sleep for
// SoI, BH2 and BH2-without-backup, using the paper's accounting: only
// wake-up stalls are charged (the paper's simulator did not model bandwidth
// contention). Fig9aContention gives the full-contention variant.
func Fig9a(runs *DayRuns) []stats.Series {
	return fig9aWith(runs, func(base, r *sim.Result, i int) (float64, bool) {
		b, stall := base.FCT[i], r.FlowStall[i]
		if math.IsNaN(b) || math.IsNaN(stall) || b <= 0 {
			return 0, false
		}
		return stall / b * 100, true
	})
}

// Fig9aContention is the stricter variant where every source of delay
// (including backhaul sharing on aggregated gateways) counts.
func Fig9aContention(runs *DayRuns) []stats.Series {
	return fig9aWith(runs, func(base, r *sim.Result, i int) (float64, bool) {
		b, v := base.FCT[i], r.FCT[i]
		if math.IsNaN(b) || math.IsNaN(v) || b <= 0 {
			return 0, false
		}
		return (v - b) / b * 100, true
	})
}

func fig9aWith(runs *DayRuns, delta func(base, r *sim.Result, i int) (float64, bool)) []stats.Series {
	base := runs.Results[sim.NoSleep]
	var out []stats.Series
	for _, sch := range []sim.Scheme{sim.BH2NoBackup, sim.BH2KSwitch, sim.SoI} {
		r := runs.Results[sch]
		if r == nil {
			continue
		}
		var deltas []float64
		for i := range base.FCT {
			if d, ok := delta(base, r, i); ok {
				deltas = append(deltas, d)
			}
		}
		cdf := stats.NewECDF(deltas)
		s := stats.Series{Name: sch.String()}
		for _, x := range []float64{0, 10, 25, 50, 100, 200, 300, 400, 500, 600} {
			s.X = append(s.X, x)
			s.Y = append(s.Y, cdf.At(x))
		}
		out = append(out, s)
	}
	return out
}

// Fig9b builds the CDF of per-gateway online-time variation (%) of BH2
// schemes relative to plain SoI.
func Fig9b(runs *DayRuns) []stats.Series {
	soi := runs.Results[sim.SoI]
	var out []stats.Series
	for _, sch := range []sim.Scheme{sim.BH2KSwitch, sim.BH2NoBackup} {
		r := runs.Results[sch]
		if r == nil || soi == nil {
			continue
		}
		var deltas []float64
		for g := range soi.GatewayOnTime {
			b := soi.GatewayOnTime[g]
			if b <= 0 {
				continue
			}
			deltas = append(deltas, (r.GatewayOnTime[g]-b)/b*100)
		}
		cdf := stats.NewECDF(deltas)
		s := stats.Series{Name: sch.String()}
		for _, x := range []float64{-100, -75, -50, -25, 0, 25, 50, 75, 100} {
			s.X = append(s.X, x)
			s.Y = append(s.Y, cdf.At(x))
		}
		out = append(out, s)
	}
	return out
}

// Fig10 sweeps gateway density: mean online gateways during peak hours
// (11-19 h) vs mean number of available gateways per client, under BH2.
// Each (density, seed) cell simulates the §5.1 office day on a binomial
// topology drawn at that density; every seed generates its own trace and
// topology, as in any campaign. The series reports the per-density mean
// over the seeds, with the cross-seed standard deviation as error bars
// when there is more than one seed (the paper averaged 10 runs). Nil
// densities sweep 1 to 10.
func Fig10(ctx context.Context, seeds []int64, densities []float64, opts campaign.Options) (stats.Series, error) {
	if densities == nil {
		densities = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	plan, err := campaign.Compile(dsl.Spec{
		Name:     "fig10",
		Schemes:  []string{sim.BH2KSwitch.String()},
		Seeds:    seeds,
		Trace:    dsl.TraceSpec{Profile: "office", Clients: 272, Gateways: 40},
		Topology: dsl.TopoSpec{Kind: "binomial"},
		Sweeps:   []dsl.Sweep{{Axis: "mean-in-range", Values: densities}},
	})
	if err != nil {
		return stats.Series{}, err
	}
	n := len(plan.Spec.Seeds)
	ws := make([]stats.Welford, len(densities))
	err = plan.Simulate(ctx, opts, func(c campaign.Cell, res *sim.Result) error {
		// Cells enumerate the densities outermost, then the seeds.
		ws[c.Index/n].Add(sim.MeanOver(res.OnlineGWs, 11, 19))
		return nil
	})
	if err != nil {
		return stats.Series{}, err
	}
	s := stats.Series{Name: "BH2"}
	for i, d := range densities {
		s.X = append(s.X, d)
		s.Y = append(s.Y, ws[i].Mean())
		if n > 1 {
			s.Err = append(s.Err, ws[i].Std())
		}
	}
	return s, nil
}

// Fig14 runs the crosstalk experiment for the paper's four configurations.
func Fig14(seed int64) ([]stats.Series, error) {
	var out []stats.Series
	type cfg struct {
		name  string
		fixed float64
		prof  crosstalk.ServiceProfile
	}
	for _, c := range []cfg{
		{"62Mbps-mixed", 0, crosstalk.Profile62},
		{"62Mbps-600m", 600, crosstalk.Profile62},
		{"30Mbps-mixed", 0, crosstalk.Profile30},
		{"30Mbps-600m", 600, crosstalk.Profile30},
	} {
		res, err := crosstalk.Run(crosstalk.ExperimentConfig{
			FixedLength: c.fixed, Profile: c.prof, Seed: seed, LengthSeed: seed,
		})
		if err != nil {
			return nil, err
		}
		s := stats.Series{Name: c.name}
		for _, r := range res {
			s.X = append(s.X, float64(r.Inactive))
			s.Y = append(s.Y, r.MeanPct)
			s.Err = append(s.Err, r.StdPct)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig15 synthesizes the production-DSLAM attenuation distribution: per-card
// mean and standard deviation over 14 cards of 72 ports.
func Fig15(seed int64) ([]stats.Series, error) {
	d := dsl.DSLAM{Cards: 14, PortsPerCard: 72}
	atten, err := dsl.Attenuations(d, seed)
	if err != nil {
		return nil, err
	}
	mean := stats.Series{Name: "card-mean-dB"}
	std := stats.Series{Name: "card-std-dB"}
	for c, card := range atten {
		var w stats.Welford
		for _, a := range card {
			w.Add(a)
		}
		mean.X = append(mean.X, float64(c+1))
		mean.Y = append(mean.Y, w.Mean())
		std.X = append(std.X, float64(c+1))
		std.Y = append(std.Y, w.Std())
	}
	return []stats.Series{mean, std}, nil
}

// LineCardTable reproduces the §5.2.3 numbers: average online line cards
// during peak hours (11-19 h) per scheme. Traces shorter than a day are
// averaged over their whole span.
func LineCardTable(runs *DayRuns) map[string]float64 {
	out := map[string]float64{}
	for sch, r := range runs.Results {
		fromH, toH := 11.0, 19.0
		if r.Duration < 19*3600 {
			fromH, toH = 0, r.Duration/3600
		}
		out[sch.String()] = sim.MeanOver(r.OnlineCards, fromH, toH)
	}
	return out
}

// Headline summarizes §5.4: day-average savings per scheme plus the
// user/ISP split for BH2+k-switch and the world-wide extrapolation.
type Headline struct {
	Savings       map[string]float64 // day-average fraction vs no-sleep
	UserShare     float64            // share of BH2+k-switch savings on the user side
	ISPShare      float64
	WorldTWh      float64 // extrapolated annual savings
	OptimalMargin float64 // the "80% margin" measured by the Optimal run
}

// Summarize computes the headline numbers from day runs.
func Summarize(runs *DayRuns) Headline {
	base := runs.Results[sim.NoSleep]
	h := Headline{Savings: map[string]float64{}}
	for sch, r := range runs.Results {
		h.Savings[sch.String()] = r.SavingsVs(base)
	}
	if bh := runs.Results[sim.BH2KSwitch]; bh != nil {
		h.ISPShare = bh.Energy.ISPShareOfSavings(base.Energy)
		h.UserShare = 1 - h.ISPShare
		ex := analytic.DefaultExtrapolation()
		ex.SavingsFrac = bh.SavingsVs(base)
		h.WorldTWh = ex.AnnualSavingsTWh()
	}
	if opt := runs.Results[sim.Optimal]; opt != nil {
		h.OptimalMargin = opt.SavingsVs(base)
	}
	return h
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
