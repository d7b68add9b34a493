// Command benchmilp measures Lagrangian dual decomposition at fleet scale
// (5·N binaries for N sites, paper §IV) and writes the results as JSON for
// CI artifacts and cross-machine comparison. Each answer carries its own
// proven primal–dual gap; decomp's tests compare it against the exact MILP
// at the sizes that solver finishes (N ≤ 20).
//
// Usage:
//
//	benchmilp -out BENCH_milp.json          # best of 3 repetitions per size
//	benchmilp -gate -out BENCH_milp.json    # also fail if the N=50 gap exceeds 1%
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

// reps is the number of repetitions per fleet size; the fastest is kept.
const reps = 3

// fleetResult is the dual decomposition (internal/decomp) on one
// milp.NewPaperFleet hour.
type fleetResult struct {
	Sites    int `json:"sites"`
	Binaries int `json:"binaries"`

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
}

type report struct {
	Bench      string        `json:"bench"`
	GoMaxProcs int           `json:"goMaxProcs"`
	Reps       int           `json:"reps"`
	Fleet      []fleetResult `json:"fleet"`
}

// runFleet measures one fleet size, best of reps.
func runFleet(sites int) fleetResult {
	fi := milp.NewPaperFleet(sites, 0)
	fr := fleetResult{Sites: sites, Binaries: 5 * sites}
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
	return fr
}

func main() {
	out := flag.String("out", "BENCH_milp.json", "path to write the JSON report")
	gate := flag.Bool("gate", false,
		"exit nonzero if the fleet decomposition gap at N=50 exceeds 1%")
	flag.Parse()

	rep := report{
		Bench:      "Lagrangian dual decomposition on milp.NewPaperFleet at 5·N binaries",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	fleetGateOK := true
	for _, sites := range []int{50, 200, 500} {
		fr := runFleet(sites)
		rep.Fleet = append(rep.Fleet, fr)
		fmt.Printf("fleet sites=%-4d decomp=%8.1fms (%s, %d iters, %d polishes, %d pivots)  gap=%.3f%%\n",
			sites, fr.DecompWallMS, fr.DecompStatus, fr.DecompIterations, fr.DecompPolishes, fr.DecompLPPivots, fr.DecompGapPct)
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
