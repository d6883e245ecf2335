package testbed

import (
	"sync"
	"time"

	"insomnia/internal/bh2"
	"insomnia/internal/stats"
	"insomnia/internal/trace"
)

// Config describes one live experiment (defaults follow §5.3). The
// gateways run the paper's §5.1 SoI timing, each terminal may associate
// with at most maxAssoc of them, and BH² terminals use bh2.DefaultParams.
type Config struct {
	Gateways  int     // 9 in the paper's Fig 12 run
	Duration  float64 // virtual seconds (1800 = the 30-minute window)
	TimeScale float64 // wall seconds per virtual second (e.g. 0.002 in tests)
	UseBH2    bool    // false = plain SoI
	Seed      int64
}

// maxAssoc is the association limit per terminal: the paper's hardware
// could associate with at most 3 gateways.
const maxAssoc = 3

func (c Config) withDefaults() Config {
	if c.Gateways == 0 {
		c.Gateways = 9
	}
	if c.Duration == 0 {
		c.Duration = 1800
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.002
	}
	return c
}

// Result is a Fig 12 series plus summary statistics.
type Result struct {
	OnlineSeries  []int // online APs sampled each virtual second
	MeanOnline    float64
	MeanSleeping  float64
	OnTimes       []float64 // per gateway, virtual seconds
	Wakeups       int
	Moves         int
	TrafficErrors int
}

// GenerateSchedule builds a per-terminal per-second byte replay from the
// synthetic trace generator: each terminal replays the clients of one AP of
// a peak-hour office trace, as the paper replayed the CRAWDAD APs.
func GenerateSchedule(terminals int, duration float64, seed int64) ([][]int64, error) {
	var busy trace.Profile
	for i := range busy {
		busy[i] = 0.45 // peak-hour activity level
	}
	cfg := trace.Config{
		Clients: terminals * 4, APs: terminals, Profile: busy,
		Duration: duration, Seed: seed,
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, terminals)
	secs := int(duration)
	for i := range out {
		out[i] = make([]int64, secs)
	}
	for _, f := range tr.Flows {
		if f.Up {
			continue
		}
		term := tr.ClientAP[f.Client]
		bps := trace.DefaultBackhaulBps
		if f.Rate > 0 && f.Rate < bps {
			bps = f.Rate
		}
		// Spread the flow's bytes over its nominal duration.
		rem := f.Bytes
		for s := int(f.Start); s < secs && rem > 0; s++ {
			chunk := int64(bps / 8)
			if chunk > rem {
				chunk = rem
			}
			out[term][s] += chunk
			rem -= chunk
		}
	}
	for _, k := range tr.Keepalives {
		term := tr.ClientAP[k.Client]
		if s := int(k.T); s < secs {
			out[term][s] += int64(k.Bytes)
		}
	}
	return out, nil
}

// Run executes one live experiment end to end: starts the server, spawns
// the terminals, replays the schedule and samples the online count.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	schedule, err := GenerateSchedule(cfg.Gateways, cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() / cfg.TimeScale }

	srv := NewServer(cfg.Gateways, clock)
	base, err := srv.Start()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Ring neighbourhoods of maxAssoc gateways.
	terms := make([]*Terminal, cfg.Gateways)
	for i := range terms {
		inRange := []int{i}
		for d := 1; len(inRange) < maxAssoc && d <= cfg.Gateways/2; d++ {
			inRange = append(inRange, (i+d)%cfg.Gateways)
			if len(inRange) < maxAssoc {
				inRange = append(inRange, (i-d+cfg.Gateways)%cfg.Gateways)
			}
		}
		terms[i] = NewTerminal(i, i, inRange, cfg.UseBH2, bh2.DefaultParams(), trace.DefaultBackhaulBps, base, cfg.Seed)
	}

	res := &Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	secs := int(cfg.Duration)

	for _, term := range terms {
		wg.Add(1)
		go func(t *Terminal) {
			defer wg.Done()
			sched := schedule[t.ID]
			for s := 0; s < secs; s++ {
				// Pace to virtual time.
				target := start.Add(time.Duration(float64(s) * cfg.TimeScale * float64(time.Second)))
				if d := time.Until(target); d > 0 {
					time.Sleep(d)
				}
				if err := t.Tick(clock(), sched[s]); err != nil {
					mu.Lock()
					res.TrafficErrors++
					mu.Unlock()
				}
			}
		}(term)
	}

	// Sampler: one reading per virtual second.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < secs; s++ {
			target := start.Add(time.Duration((float64(s) + 0.5) * cfg.TimeScale * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			n := srv.OnlineCount()
			mu.Lock()
			res.OnlineSeries = append(res.OnlineSeries, n)
			mu.Unlock()
		}
	}()

	wg.Wait()

	var w stats.Welford
	// Skip the first 2 minutes as warm-up, as Fig 12 starts at minute 2.
	for i, n := range res.OnlineSeries {
		if i >= 120 {
			w.Add(float64(n))
		}
	}
	res.MeanOnline = w.Mean()
	res.MeanSleeping = float64(cfg.Gateways) - res.MeanOnline
	res.OnTimes = srv.OnTimes()
	res.Wakeups = srv.Wakeups()
	for _, t := range terms {
		res.Moves += t.Moves
	}
	return res, nil
}
