// Coordination: how much of the energy-saving margin does each level of
// coordination recover? Compares plain SoI (none), distributed BH²
// (neighbour gossip via passive observation), the §3.3-style centralized
// controller (global knowledge, physical constraints), and the idealized
// Optimal (global knowledge plus instant, disruption-free migration).
//
//	go run ./examples/coordination
package main

import (
	"context"
	"fmt"
	"log"

	"insomnia/internal/campaign"
	"insomnia/internal/figures"
	"insomnia/internal/sim"
)

func main() {
	// The §5.1 evaluation day at seed 11, under the no-sleep baseline and
	// one scheme per level of coordination.
	sp := figures.DaySpec([]int64{11})
	sp.Schemes = []string{"no-sleep", "SoI", "BH2+k-switch", "centralized+k-switch", "optimal"}
	plan, err := campaign.Compile(sp)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("scheme                    savings   peak online gateways (11-19h)")
	var base *sim.Result
	err = plan.Simulate(context.Background(), campaign.Options{}, func(c campaign.Cell, res *sim.Result) error {
		if c.Scheme == sim.NoSleep {
			base = res
			return nil
		}
		fmt.Printf("%-25s %5.1f%%    %.1f of %d\n",
			c.Scheme, res.SavingsVs(base)*100, sim.MeanOver(res.OnlineGWs, 11, 19), sp.Trace.Gateways)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreading: the distributed heuristic needs no controller and no gateway")
	fmt.Println("changes; the centralized variant shows what coordination alone adds;")
	fmt.Println("Optimal adds physically-impossible instant migration on top.")
}
