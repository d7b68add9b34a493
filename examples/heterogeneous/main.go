// Heterogeneous fleets: the paper's §IX future-work scenario. Each site
// mixes three server generations (a partially upgraded fleet); the
// optimizer dispatches per class — efficient hardware first — while still
// steering regional prices. Compares against a capacity-proportional
// dispatch billed by the same market.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"math"

	"billcap"
)

func main() {
	sites := billcap.PaperHeteroSites()
	sys, err := billcap.NewSystem(sites, billcap.PaperPolicies(billcap.Policy1), billcap.SystemOptions{})
	if err != nil {
		log.Fatal(err)
	}
	demand := []float64{170, 190, 150}
	capacity := sys.MaxThroughput()
	fmt.Printf("fleet capacity: %.3g req/h across %d heterogeneous sites\n\n", capacity, len(sites))

	lam := 0.6 * capacity
	in := billcap.HourInput{TotalLambda: lam, DemandMW: demand, BudgetUSD: math.Inf(1)}
	dec, err := sys.MinimizeCost(in, lam, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dispatching %.3g req/h (60%% of capacity):\n", lam)
	for i, s := range sites {
		a := dec.Sites[i]
		fmt.Printf("  %-6s λ=%.3g req/h, planned %.1f MW\n", s.Name, a.Lambda, a.PowerMW)
		plans, err := s.Plans(sys.Options().Scope)
		if err != nil {
			log.Fatal(err)
		}
		for c, pl := range plans {
			if l := a.ClassLambda[c]; l > 0 {
				fmt.Printf("          %-13s %.3g req/h (%.1f%% of the class)\n",
					pl.Class.Name, l, 100*l/pl.MaxLambda)
			}
		}
	}

	real, err := sys.Realize(dec.Lambdas(), demand)
	if err != nil {
		log.Fatal(err)
	}
	servers := 0
	for _, sr := range real.Sites {
		servers += sr.Breakdown.Servers
	}
	fmt.Printf("\nclass-aware plan: predicted $%.0f/h, billed $%.0f/h (%d servers active)\n",
		dec.PredictedCostUSD, real.BillUSD(), servers)

	// The naive alternative: split by site capacity, ignore classes' order.
	naive := make([]float64, len(sites))
	for i, s := range sites {
		siteMax, err := s.MaxLambda()
		if err != nil {
			log.Fatal(err)
		}
		naive[i] = lam * siteMax / capacity
	}
	nv, err := sys.Realize(naive, demand)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proportional plan: billed $%.0f/h → class-aware saves %.1f%%\n",
		nv.BillUSD(), 100*(nv.BillUSD()-real.BillUSD())/nv.BillUSD())
}
