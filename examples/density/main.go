// Density: the Fig 10 experiment — how the number of gateways BH2 keeps
// online during peak hours shrinks as wireless density (the mean number of
// gateways a client can reach) grows from 1 to 10.
//
// The sweep itself is figures.Fig10: a campaign whose cells are the
// (density, seed) pairs, each seed with its own office-day trace, and
// whose series carries the cross-seed mean ± std this table renders.
//
//	go run ./examples/density
package main

import (
	"context"
	"fmt"
	"log"

	"insomnia/internal/campaign"
	"insomnia/internal/figures"
)

func main() {
	seeds := []int64{7, 8, 9}
	s, err := figures.Fig10(context.Background(), seeds, nil, campaign.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean available gateways -> online gateways during peak (11-19h), %d seeds\n", len(seeds))
	for i, density := range s.X {
		fmt.Printf("  %4.1f -> %5.1f ±%4.1f  %s\n", density, s.Y[i], s.Err[i], bar(s.Y[i], 40))
	}
	fmt.Println("\npaper: density 1 -> ~29 online; density 2 -> 19 (35% fewer); falling further with density")
}

func bar(v float64, max int) string {
	out := make([]byte, 0, max)
	for i := 0; float64(i) < v && i < max; i++ {
		out = append(out, '#')
	}
	return string(out)
}
