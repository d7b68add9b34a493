package core

import (
	"math"
	"testing"

	"billcap/internal/lp"
)

// TestSparseWeekMatchesDenseOracle is the tentpole's cross-core acceptance
// property: a seeded 168-hour week decided hour by hour on the sparse revised
// simplex must reproduce the dense tableau oracle's decisions — same algorithm
// branch every hour, same step objective within tolerance — while actually
// exercising the sparse machinery (basis updates and refactorizations
// reported, and none on the dense side). Run under -race in CI.
func TestSparseWeekMatchesDenseOracle(t *testing.T) {
	dense := paperSystem(t, Options{LPCore: lp.CoreDense})
	sparse := paperSystem(t, Options{LPCore: lp.CoreSparse})

	probe := HourInput{TotalLambda: 1.2e12, PremiumLambda: 6e11, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	d, err := dense.DecideHour(probe)
	if err != nil {
		t.Fatal(err)
	}
	tight, loose := d.PredictedCostUSD*0.5, d.PredictedCostUSD*10

	var denseStats, sparseStats SolverStats
	for _, in := range simWeek(11, tight, loose) {
		dd, errD := dense.DecideHour(in)
		ds, errS := sparse.DecideHour(in)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("hour %d: dense err %v vs sparse err %v", in.Hour, errD, errS)
		}
		if errD != nil {
			continue
		}
		denseStats.Accumulate(dd.Solver)
		sparseStats.Accumulate(ds.Solver)
		if dd.Step != ds.Step {
			t.Fatalf("hour %d: dense step %v vs sparse step %v", in.Hour, dd.Step, ds.Step)
		}
		// Step objective equivalence, same convention as the solve-cache week
		// test: step 1 branches minimize cost, step 2 branches maximize
		// Σx − ε·cost in scaled units (alternate optima may differ in cost).
		switch dd.Step {
		case StepCostMin, StepPremiumOnly:
			tol := 1e-9*(1+math.Abs(dd.PredictedCostUSD)) + 1e-6
			if diff := math.Abs(dd.PredictedCostUSD - ds.PredictedCostUSD); diff > tol {
				t.Errorf("hour %d (%v): sparse cost %v vs dense %v (diff %g)",
					in.Hour, dd.Step, ds.PredictedCostUSD, dd.PredictedCostUSD, diff)
			}
		default:
			scale := lambdaScale(in.TotalLambda)
			eps := dense.Options().epsilon()
			objD := dd.Served/scale - eps*dd.PredictedCostUSD
			objS := ds.Served/scale - eps*ds.PredictedCostUSD
			tol := 1e-9*(1+math.Abs(objD)) + 1e-6
			if diff := math.Abs(objD - objS); diff > tol {
				t.Errorf("hour %d (%v): sparse objective %v vs dense %v (diff %g)",
					in.Hour, dd.Step, objS, objD, diff)
			}
		}
		// The sparse decision must be feasible in its own right.
		if ds.Served > in.TotalLambda*(1+1e-9)+1e-6 {
			t.Errorf("hour %d: sparse serves %v of %v arrivals", in.Hour, ds.Served, in.TotalLambda)
		}
		for i, a := range ds.Sites {
			site := sparse.Sites[i].DC
			if a.On && a.PowerMW > site.PowerCapMW+1e-6 {
				t.Errorf("hour %d site %d: power %v exceeds cap %v", in.Hour, i, a.PowerMW, site.PowerCapMW)
			}
			if in.SiteDown(i) && a.On {
				t.Errorf("hour %d site %d: down site powered on", in.Hour, i)
			}
		}
	}

	// The factorization counters must tell the two cores apart: a week of
	// MILP solves on the sparse core performs eta updates (and, on the bigger
	// hours, periodic refactorizations), while the dense oracle reports none.
	if sparseStats.LPBasisUpdates == 0 {
		t.Error("a full sparse week reported no basis updates")
	}
	if denseStats.LPRefactorizations != 0 || denseStats.LPBasisUpdates != 0 {
		t.Errorf("dense oracle reported factorization work: %+v", denseStats)
	}
	if denseStats.LPIterations == 0 || sparseStats.LPIterations == 0 {
		t.Error("a full week reported no simplex iterations")
	}
}
