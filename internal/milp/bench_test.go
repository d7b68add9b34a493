package milp

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBranchAndBound measures a complete solve of a 14-binary random
// problem — roughly the binary count of a 3-site, 5-price-level hour.
func BenchmarkBranchAndBound(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	p, _ := randomBinaryProblem(r, 14, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Solve(); s.Status != Optimal && s.Status != Infeasible {
			b.Fatal(s.Status)
		}
	}
}

// BenchmarkPaperScaleBnB sweeps the paper's site counts. The knapsack
// sub-benchmark explores a fixed node budget on the deterministic hard
// knapsack at 5·N binaries (the hourly MILP's binary count for N sites), so
// its nodes/s is a pure search-throughput figure.
func BenchmarkPaperScaleBnB(b *testing.B) {
	const maxNodes = 1000
	for _, sites := range []int{5, 10, 20} {
		k := NewHardKnapsack(5*sites, 0)
		b.Run(fmt.Sprintf("sites=%d/knapsack", sites), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				s := k.SolveWithOptions(Options{MaxNodes: maxNodes})
				if s.Status != Optimal && s.Status != Limit {
					b.Fatal(s.Status)
				}
				nodes += s.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
		// Cold vs warm hour-over-hour re-solve on the paper-hour family
		// (NewPaperHour closes to proven optimality, unlike the knapsack):
		// hour 1's root basis crashes hour 2's root LP, the one layer the
		// core solve cache carries across hours.
		seed := NewPaperHour(sites, PaperHourBudget(sites, 1)).
			SolveWithOptions(Options{MaxNodes: maxNodes})
		if seed.Status != Optimal {
			b.Fatalf("paper-hour seed solve: %v", seed.Status)
		}
		for _, mode := range []string{"cold", "warm"} {
			opt := Options{MaxNodes: maxNodes}
			if mode == "warm" {
				opt.StartBasis = seed.RootBasis
			}
			b.Run(fmt.Sprintf("sites=%d/resolve=%s", sites, mode), func(b *testing.B) {
				b.ReportAllocs()
				var nodes, pivots int
				for i := 0; i < b.N; i++ {
					s := NewPaperHour(sites, PaperHourBudget(sites, 2)).SolveWithOptions(opt)
					if s.Status != Optimal {
						b.Fatal(s.Status)
					}
					nodes += s.Nodes
					pivots += s.Pivots
				}
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
				b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			})
		}
	}
}
