// Switchsizing: use Eq (2) (Fig 5) to pick how big the HDF k-switches must
// be: for each switch size k, the probability that the l-th line card of a
// group can sleep, given per-line activity p — plus the expected number of
// sleeping cards and a comparison against plain SoI's (1-p)^m.
//
// The second half validates the analytic ordering in the simulator: a
// campaign spec sweeps k on an 8-card shelf over three seeds of a
// two-hour flash crowd, runs through Plan.Simulate, and reports online
// cards over the run.
//
//	go run ./examples/switchsizing
package main

import (
	"context"
	"fmt"
	"log"

	"insomnia/internal/analytic"
	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/sim"
	"insomnia/internal/stats"
)

func main() {
	const m = 24 // modems per line card
	for _, p := range []float64{0.5, 0.25} {
		fmt.Printf("modem online probability p = %.2f, %d modems/card\n", p, m)
		fmt.Printf("  plain SoI card-sleep probability (1-p)^m = %.2g\n",
			analytic.CardSleepNoSwitch(m, p))
		for _, k := range []int{2, 4, 8} {
			fmt.Printf("  %d-switch: card-sleep probabilities ", k)
			for l := 1; l <= k; l++ {
				v, err := analytic.CardSleepProbability(l, k, m, p)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("l=%d:%.3f ", l, v)
			}
			exp, err := analytic.ExpectedSleepingCards(k, m, p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("=> %.2f of %d cards sleep on average\n", exp, k)
		}
		fmt.Println()
	}
	fmt.Println("conclusion (paper §4.2): even 4- and 8-switches put a good number of")
	fmt.Println("cards to sleep; plain SoI effectively never sleeps a card.")

	simulateKSweep()
}

// kSweep is BH2 over a 48-line shelf of 8 small cards, k in {2,4,8}, on a
// two-hour flash crowd that triples the online fraction from midnight.
const kSweep = `
name: switchsizing
schemes: [BH2+k-switch]
seeds: [5, 6, 7]
duration: 7200
trace:
  profile: flash-crowd
  clients: 48
  gateways: 8
  flash_hour: 0
  flash_hours: 2
  flash_scale: 3
topology:
  kind: overlap
  mean_in_range: 5
dslam:
  cards: 8
  ports_per_card: 6
sweeps:
  - axis: k
    values: [2, 4, 8]
`

// simulateKSweep cross-checks the Eq (2) ordering end-to-end. Cells come
// back in enumeration order — one variant per k, its seeds within — so
// each k's seeds fold into one mean.
func simulateKSweep() {
	sp, err := dsl.ParseSpec([]byte(kSweep))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := campaign.Compile(sp)
	if err != nil {
		log.Fatal(err)
	}
	online := make([]stats.Welford, len(sp.Sweeps[0].Values))
	err = plan.Simulate(context.Background(), campaign.Options{}, func(c campaign.Cell, res *sim.Result) error {
		online[c.Index/len(sp.Seeds)].Add(sim.MeanOver(res.OnlineCards, 0, 2))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsimulated check (BH2, 8-card shelf, 2 h flash crowd, %d seeds):\n", len(sp.Seeds))
	for i, k := range sp.Sweeps[0].Values {
		fmt.Printf("  k=%g: %.2f ±%.2f of 8 cards online\n", k, online[i].Mean(), online[i].Std())
	}
	fmt.Println("bigger switches concentrate active lines on fewer cards, as Eq (2) predicts.")
}
