// Command benchmilp measures the exact MILP against dual decomposition at
// fleet scale (5·N binaries for N sites, paper §IV) and writes the results
// as JSON for CI artifacts and cross-machine comparison.
//
// Usage:
//
//	benchmilp -out BENCH_milp.json          # full run: 4000-node budget, 3 reps
//	benchmilp -quick -out BENCH_milp.json   # CI smoke: 1000-node budget, 1 rep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"billcap/internal/decomp"
	"billcap/internal/milp"
)

// fleetResult pits the exact MILP against the Lagrangian dual decomposition
// (internal/decomp) on one milp.NewPaperFleet hour. The exact solve runs
// under the same node budget plus a wall-clock deadline, so at fleet scale it
// reports a limit status with whatever incumbent it found, while the
// decomposition answers with a proven primal–dual gap.
type fleetResult struct {
	Sites    int `json:"sites"`
	Binaries int `json:"binaries"`

	ExactWallMS    float64 `json:"exactWallMS"`
	ExactStatus    string  `json:"exactStatus"`
	ExactNodes     int     `json:"exactNodes"`
	ExactObjective float64 `json:"exactObjective"`

	DecompWallMS     float64 `json:"decompWallMS"`
	DecompStatus     string  `json:"decompStatus"`
	DecompIterations int     `json:"decompIterations"`
	DecompObjective  float64 `json:"decompObjective"`
	DecompDualBound  float64 `json:"decompDualBound"`
	// DecompPolishes and DecompLPPivots count the primal polish LPs the
	// decomposition actually solved and their simplex pivots.
	DecompPolishes int `json:"decompPolishes"`
	DecompLPPivots int `json:"decompLPPivots"`
	// DecompGapPct is the decomposition's own proven relative gap between its
	// dual bound and recovered primal, in percent.
	DecompGapPct float64 `json:"decompGapPct"`
	// VsExactPct is decomp primal / exact incumbent − 1, in percent; only
	// meaningful as an optimality comparison when ExactStatus is "optimal".
	VsExactPct float64 `json:"vsExactPct"`
}

type report struct {
	Bench      string        `json:"bench"`
	GoMaxProcs int           `json:"goMaxProcs"`
	MaxNodes   int           `json:"maxNodes"`
	Reps       int           `json:"reps"`
	Fleet      []fleetResult `json:"fleet"`
}

// runFleet measures one fleet size, best-of-reps per solver.
func runFleet(sites, maxNodes, reps int, exactDeadline time.Duration) fleetResult {
	fi := milp.NewPaperFleet(sites, 0)
	fr := fleetResult{Sites: sites, Binaries: 5 * sites}
	for r := 0; r < reps; r++ {
		start := time.Now()
		s := fi.Build().SolveWithOptions(milp.Options{MaxNodes: maxNodes, Deadline: exactDeadline})
		wall := time.Since(start).Seconds() * 1e3
		if fr.ExactWallMS == 0 || wall < fr.ExactWallMS {
			fr.ExactWallMS = wall
			fr.ExactStatus = s.Status.String()
			fr.ExactNodes = s.Nodes
			fr.ExactObjective = s.Objective
		}
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, err := decomp.Solve(decomp.FromFleet(fi), decomp.Options{})
		wall := time.Since(start).Seconds() * 1e3
		if err != nil {
			log.Fatalf("fleet sites=%d decomp: %v", sites, err)
		}
		if res.Status == decomp.Infeasible {
			log.Fatalf("fleet sites=%d decomp: infeasible", sites)
		}
		if fr.DecompWallMS == 0 || wall < fr.DecompWallMS {
			fr.DecompWallMS = wall
			fr.DecompStatus = res.Status.String()
			fr.DecompIterations = res.Iterations
			fr.DecompObjective = res.Objective
			fr.DecompDualBound = res.DualBound
			fr.DecompPolishes = res.Polishes
			fr.DecompLPPivots = res.LPPivots
			fr.DecompGapPct = 100 * res.Gap
		}
	}
	if fr.ExactObjective != 0 {
		fr.VsExactPct = 100 * (fr.DecompObjective/fr.ExactObjective - 1)
	}
	return fr
}

func main() {
	out := flag.String("out", "BENCH_milp.json", "path to write the JSON report")
	quick := flag.Bool("quick", false, "CI smoke mode: smaller node budget, one repetition")
	gate := flag.Bool("gate", false,
		"exit nonzero if the fleet decomposition gap at N=50 exceeds 1%")
	flag.Parse()

	maxNodes, reps := 4000, 3
	if *quick {
		maxNodes, reps = 1000, 1
	}

	rep := report{
		Bench:      "exact MILP vs Lagrangian dual decomposition on milp.NewPaperFleet at 5·N binaries",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		MaxNodes:   maxNodes,
		Reps:       reps,
	}
	exactDeadline := 10 * time.Second
	if *quick {
		exactDeadline = 3 * time.Second
	}
	fleetGateOK := true
	for _, sites := range []int{50, 200, 500} {
		fr := runFleet(sites, maxNodes, reps, exactDeadline)
		rep.Fleet = append(rep.Fleet, fr)
		fmt.Printf("fleet sites=%-4d exact=%9.1fms (%s, %d nodes)  decomp=%8.1fms (%s, %d iters, %d polishes, %d pivots)  gap=%.3f%%  vsExact=%+.3f%%\n",
			sites, fr.ExactWallMS, fr.ExactStatus, fr.ExactNodes,
			fr.DecompWallMS, fr.DecompStatus, fr.DecompIterations, fr.DecompPolishes, fr.DecompLPPivots, fr.DecompGapPct, fr.VsExactPct)
		if sites == 50 && fr.DecompGapPct > 1 {
			fleetGateOK = false
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (GOMAXPROCS=%d)\n", *out, rep.GoMaxProcs)
	if *gate && !fleetGateOK {
		log.Fatal("gate: fleet decomposition gap above 1% at N=50")
	}
}
