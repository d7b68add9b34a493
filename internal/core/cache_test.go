package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"billcap/internal/lpparse"
)

// TestBuildHourPatchMatchesRebuild proves the skeleton-patching path emits
// exactly the model a cold rebuild would: two hours with different demand,
// load and scale, where the second build is a cache hit, must produce a
// byte-identical lp_solve dump to a from-scratch buildBase.
func TestBuildHourPatchMatchesRebuild(t *testing.T) {
	s := paperSystem(t, Options{SolverCache: true})
	inA := HourInput{TotalLambda: 9e11, PremiumLambda: 5e11, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	inB := HourInput{TotalLambda: 1.3e12, PremiumLambda: 6e11, DemandMW: []float64{180, 175, 160}, BudgetUSD: math.Inf(1)}

	// Hour A populates the cache.
	scaleA := lambdaScale(inA.TotalLambda)
	if _, _, _, err := s.buildHour(inA, scaleA, inA.TotalLambda); err != nil {
		t.Fatal(err)
	}
	// Hour B should hit and patch.
	scaleB := lambdaScale(inB.TotalLambda)
	patched, _, _, err := s.buildHour(inB, scaleB, inB.TotalLambda)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.cache.Stats(); hits == 0 {
		t.Fatal("second hour with the same reachable segments did not hit the skeleton cache")
	}
	fresh, _, err := s.buildBase(inB, scaleB, inB.TotalLambda)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := lpparse.Write(&got, patched); err != nil {
		t.Fatal(err)
	}
	if err := lpparse.Write(&want, fresh); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("patched skeleton differs from a cold rebuild:\n--- patched ---\n%s\n--- rebuilt ---\n%s",
			got.String(), want.String())
	}
}

// TestBuildHourSignatureMiss: demand high enough to change the reachable
// segment set must miss the cache and rebuild rather than patch the wrong
// shape.
func TestBuildHourSignatureMiss(t *testing.T) {
	s := paperSystem(t, Options{SolverCache: true})
	inA := HourInput{TotalLambda: 9e11, PremiumLambda: 5e11, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	scale := lambdaScale(inA.TotalLambda)
	if _, _, sigA, err := s.buildHour(inA, scale, inA.TotalLambda); err != nil {
		t.Fatal(err)
	} else if sigA == 0 {
		t.Fatal("cache-enabled build returned zero signature")
	}
	// Push demand past the first breakpoints: lower segments become
	// unreachable, so the skeleton has fewer rows and must not be patched.
	inB := inA
	inB.DemandMW = []float64{260, 280, 240}
	if _, _, sigB, err := s.buildHour(inB, scale, inB.TotalLambda); err != nil {
		t.Fatal(err)
	} else if _, _, sigA, _ := s.buildHour(inA, scale, inA.TotalLambda); sigA == sigB {
		t.Error("demand shift that changes segment reachability kept the same signature")
	}
}

// simWeek builds a deterministic pseudo-diurnal week of inputs that walks
// through every branch of the two-step algorithm: abundant and tight budgets,
// light and heavy hours, and a few single-site outages.
func simWeek(seed int64, tightBudget, looseBudget float64) []HourInput {
	r := rand.New(rand.NewSource(seed))
	ins := make([]HourInput, 168)
	for h := range ins {
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(h%24)/24)
		total := 1.4e12 * diurnal * (0.9 + 0.2*r.Float64())
		in := HourInput{
			Hour:          h,
			TotalLambda:   total,
			PremiumLambda: total * (0.3 + 0.2*r.Float64()),
			DemandMW: []float64{
				150 + 60*r.Float64(),
				160 + 60*r.Float64(),
				140 + 60*r.Float64(),
			},
			BudgetUSD: looseBudget,
		}
		if h%3 == 1 {
			in.BudgetUSD = tightBudget
		}
		if h%41 == 40 {
			in.Down = []bool{false, false, false}
			in.Down[r.Intn(3)] = true
		}
		ins[h] = in
	}
	return ins
}

// TestSolverCacheWeekMatchesCold is the tentpole's end-to-end equivalence
// property: a seeded simulated week decided hour by hour with the solve cache
// on (presolve + skeleton patching + basis/incumbent seeding) must reproduce
// the cold system's decisions — same branch every hour and the same step
// objective to within the solver's optimality gap — while actually exercising
// the incremental machinery (warm starts taken, binaries presolved away,
// skeleton hits). Run under -race in CI.
func TestSolverCacheWeekMatchesCold(t *testing.T) {
	cold := paperSystem(t, Options{})
	warm := paperSystem(t, Options{SolverCache: true})

	// Calibrate the tight budget at half of an average hour's uncapped cost,
	// so step 2 binds often and its budget row gives presolve something to
	// prove about the expensive price segments.
	probe := HourInput{TotalLambda: 1.2e12, PremiumLambda: 6e11, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	d, err := cold.DecideHour(probe)
	if err != nil {
		t.Fatal(err)
	}
	tight, loose := d.PredictedCostUSD*0.5, d.PredictedCostUSD*10

	var coldStats, warmStats SolverStats
	for _, in := range simWeek(7, tight, loose) {
		dc, errC := cold.DecideHour(in)
		dw, errW := warm.DecideHour(in)
		if (errC == nil) != (errW == nil) {
			t.Fatalf("hour %d: cold err %v vs warm err %v", in.Hour, errC, errW)
		}
		if errC != nil {
			continue
		}
		coldStats.Accumulate(dc.Solver)
		warmStats.Accumulate(dw.Solver)
		if dc.Step != dw.Step {
			t.Fatalf("hour %d: cold step %v vs warm step %v", in.Hour, dc.Step, dw.Step)
		}
		// Step objective equivalence. Step 1 branches minimize cost; step 2
		// branches maximize Σx − ε·cost in scaled units.
		switch dc.Step {
		case StepCostMin, StepPremiumOnly:
			tol := 1e-9*(1+math.Abs(dc.PredictedCostUSD)) + 1e-6
			if diff := math.Abs(dc.PredictedCostUSD - dw.PredictedCostUSD); diff > tol {
				t.Errorf("hour %d (%v): warm cost %v vs cold %v (diff %g)",
					in.Hour, dc.Step, dw.PredictedCostUSD, dc.PredictedCostUSD, diff)
			}
		default:
			scale := lambdaScale(in.TotalLambda)
			objC := dc.Served/scale - epsilon*dc.PredictedCostUSD
			objW := dw.Served/scale - epsilon*dw.PredictedCostUSD
			tol := 1e-9*(1+math.Abs(objC)) + 1e-6
			if diff := math.Abs(objC - objW); diff > tol {
				t.Errorf("hour %d (%v): warm objective %v vs cold %v (diff %g)",
					in.Hour, dc.Step, objW, objC, diff)
			}
		}
		// The warm decision must be feasible in its own right.
		if dw.Served > in.TotalLambda*(1+1e-9)+1e-6 {
			t.Errorf("hour %d: warm serves %v of %v arrivals", in.Hour, dw.Served, in.TotalLambda)
		}
		for i, a := range dw.Sites {
			dcSite := warm.Sites[i].DC
			if a.On && a.PowerMW > dcSite.PowerCapMW+1e-6 {
				t.Errorf("hour %d site %d: power %v exceeds cap %v", in.Hour, i, a.PowerMW, dcSite.PowerCapMW)
			}
			if in.SiteDown(i) && a.On {
				t.Errorf("hour %d site %d: down site powered on", in.Hour, i)
			}
		}
		if dw.Step == StepBudgetCapped && dw.PredictedCostUSD > in.BudgetUSD*(1+budgetSlack)+1e-4 {
			t.Errorf("hour %d: budget-capped warm decision costs %v over budget %v",
				in.Hour, dw.PredictedCostUSD, in.BudgetUSD)
		}
	}

	if warmStats.WarmStarted == 0 {
		t.Error("a full week warm-started no solve — the cross-hour cache never seeded an incumbent")
	}
	if warmStats.PresolveFixed == 0 {
		t.Error("a full week of tight-budget hours presolve-fixed no binaries")
	}
	if coldStats.WarmStarted != 0 || coldStats.PresolveFixed != 0 {
		t.Errorf("cold system reports incremental-solving stats: %+v", coldStats)
	}
	if hits, _ := warm.cache.Stats(); hits == 0 {
		t.Error("skeleton cache recorded no hits across a week of structurally similar hours")
	}
	// Node counts include the extra root re-solve that applies presolve
	// fixings (one bookkeeping "node" per fixed solve), so compare the work
	// that actually costs time: simplex pivots. Incremental solving must not
	// make the week materially more expensive than cold.
	if float64(warmStats.LPIterations) > 1.1*float64(coldStats.LPIterations) {
		t.Errorf("warm week spent %d pivots, cold %d — incremental solving must not grow the search",
			warmStats.LPIterations, coldStats.LPIterations)
	}
}
