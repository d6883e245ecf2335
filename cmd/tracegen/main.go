// Command tracegen generates a synthetic access-network trace, prints its
// Fig 2/3/4 statistics and optionally writes its flows as CSV (the format
// trace.ReadFlowsCSV replays). With -adversarial it instead hill-climbs a
// worst-case keepalive trace against a named scheme's wakeup count and
// reports the wakeups it found.
//
// Usage:
//
//	tracegen -profile office|sim|residential [-seed 1] [-clients N] [-aps N]
//	         [-csv flows.csv] [-stats]
//	tracegen -adversarial SoI [-clients N] [-aps N] [-duration 3600]
//	         [-iters 100] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"insomnia/internal/cli"
	"insomnia/internal/sim"
	"insomnia/internal/topology"
	"insomnia/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	profile := flag.String("profile", "office", "office | sim | residential")
	seed := flag.Int64("seed", 1, "RNG seed")
	clients := flag.Int("clients", 0, "override client count")
	aps := flag.Int("aps", 0, "override AP count")
	csvPath := flag.String("csv", "", "write flow CSV to this path")
	showStats := flag.Bool("stats", true, "print trace statistics")
	adversarial := flag.String("adversarial", "", "search a worst-case keepalive trace against this scheme (canonical name, e.g. SoI)")
	iters := flag.Int("iters", 100, "adversarial hill-climb iterations")
	duration := flag.Float64("duration", 3600, "adversarial trace duration in seconds")
	flag.Parse()
	if err := cli.RejectArgs("tracegen", flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	if *adversarial != "" {
		runAdversarial(*adversarial, *clients, *aps, *seed, *duration, *iters)
		return
	}

	var cfg trace.Config
	switch *profile {
	case "office":
		cfg = trace.DefaultOfficeConfig(*seed)
	case "sim":
		cfg = trace.DefaultSimConfig(*seed)
	case "residential":
		n := 2000
		if *clients > 0 {
			n = *clients
		}
		cfg = trace.DefaultResidentialConfig(n, *seed)
	default:
		log.Fatalf("unknown profile %q", *profile)
	}
	if *clients > 0 {
		cfg.Clients = *clients
	}
	if *aps > 0 {
		cfg.APs = *aps
	}

	tr, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteFlowsCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *csvPath)
	}
	if !*showStats {
		return
	}

	fmt.Printf("clients=%d aps=%d flows=%d keepalives=%d downlink-bytes=%.1f GB\n",
		tr.Cfg.Clients, tr.Cfg.APs, len(tr.Flows), len(tr.Keepalives),
		float64(tr.TotalBytes(false))/1e9)

	mean := trace.MeanUtilization(tr.UtilizationMatrix(false, 24))
	fmt.Println("\nhourly mean downlink utilization (%):")
	for h, u := range mean {
		fmt.Printf("  %02dh %6.2f\n", h, u*100)
	}

	h := tr.GapHistogram(16*3600, 17*3600)
	fmt.Printf("\npeak-hour idle-gap structure: %.1f%% of idle time in gaps < 60 s (paper: >80%%)\n",
		h.FractionBelow(60)*100)
}

// runAdversarial hill-climbs keepalive schedules against the named
// scheme's wakeup count and reports the worst case found.
func runAdversarial(scheme string, clients, aps int, seed int64, duration float64, iters int) {
	sc, err := sim.ParseScheme(scheme)
	if err != nil {
		log.Fatal(err)
	}
	if clients == 0 {
		clients = 48
	}
	if aps == 0 {
		aps = 8
	}
	acfg := trace.AdversaryConfig{
		Clients: clients, APs: aps, Duration: duration, Seed: seed, Iters: iters,
	}
	// Client placement is identical for every candidate pattern, so one
	// topology serves the whole search.
	var tp *topology.Topology
	score := func(tr *trace.Trace) float64 {
		if tp == nil {
			g, err := topology.OverlapGraph(aps, topology.DefaultMeanInRange, seed)
			if err != nil {
				log.Fatal(err)
			}
			if tp, err = topology.FromOverlap(g, tr.ClientAP); err != nil {
				log.Fatal(err)
			}
		}
		res, err := sim.Run(sim.Config{Trace: tr, Topo: tp, Scheme: sc, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		return float64(res.Wakeups)
	}
	a, err := trace.SearchAdversarial(acfg, score)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adversarial search vs %s: %d clients / %d gateways / %.0f s, %d iterations\n",
		sc, clients, aps, duration, iters)
	fmt.Printf("wakeups: %.0f (random seed pattern) -> %.0f (worst case found, %+.1f%%)\n",
		a.Initial, a.Score, (a.Score/a.Initial-1)*100)
	fmt.Printf("keepalives in worst-case trace: %d\n", len(a.Trace.Keepalives))
}
