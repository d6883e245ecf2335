// Command testbedd runs the live localhost testbed of §5.3: a status server
// emulating gateway sleep states and one BH² terminal per line, all talking
// real HTTP. It prints the Fig 12 series (online APs per minute).
//
// Usage:
//
//	testbedd [-gateways 9] [-minutes 30] [-scale 0.01] [-soi] [-seed 1]
//
// -scale is wall-seconds per virtual second: 0.01 replays the 30-minute
// experiment in 18 s; 1.0 runs it in real time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"insomnia/internal/cli"
	"insomnia/internal/testbed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("testbedd: ")
	gateways := flag.Int("gateways", 9, "number of gateways/terminals")
	minutes := flag.Int("minutes", 30, "virtual experiment length")
	scale := flag.Float64("scale", 0.01, "wall seconds per virtual second")
	soi := flag.Bool("soi", false, "run plain SoI instead of BH2")
	seed := flag.Int64("seed", 1, "RNG seed")
	flag.Parse()
	if err := cli.RejectArgs("testbedd", flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	mode := "BH2"
	if *soi {
		mode = "SoI"
	}
	log.Printf("running %s over %d gateways for %d virtual minutes (scale %gx)...",
		mode, *gateways, *minutes, *scale)

	res, err := testbed.Run(testbed.Config{
		Gateways:  *gateways,
		Duration:  float64(*minutes) * 60,
		TimeScale: *scale,
		UseBH2:    !*soi,
		Seed:      *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("minute,online_aps")
	for i := 0; i < len(res.OnlineSeries); i += 60 {
		sum, n := 0, 0
		for j := i; j < i+60 && j < len(res.OnlineSeries); j++ {
			sum += res.OnlineSeries[j]
			n++
		}
		fmt.Printf("%d,%.2f\n", i/60, float64(sum)/float64(n))
	}
	fmt.Printf("\nmean online APs (after 2-minute warm-up): %.2f of %d\n", res.MeanOnline, *gateways)
	fmt.Printf("mean sleeping: %.2f (paper Fig 12: BH2 5.46, SoI 3.72 of 9)\n", res.MeanSleeping)
	fmt.Printf("gateway wakeups: %d, BH2 moves: %d, transport errors: %d\n",
		res.Wakeups, res.Moves, res.TrafficErrors)
}
