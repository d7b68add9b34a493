package core

import (
	"math"
	"math/rand"
	"testing"
)

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

// TestSolverCacheWeekMatchesCold is the solve cache's end-to-end equivalence
// property: a seeded simulated week decided hour by hour with the cache on
// (each solve kind's root basis carried to the next hour) must reproduce the
// cold system's decisions — same branch every hour and the same step
// objective to within the solver's optimality gap — while the carried bases
// actually save LP work. Run under -race in CI.
func TestSolverCacheWeekMatchesCold(t *testing.T) {
	cold := paperSystem(t, Options{})
	warm := paperSystem(t, Options{SolverCache: true})

	// Calibrate the tight budget at half of an average hour's uncapped cost,
	// so step 2 binds often.
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

	// The carried bases must engage: the week's root LPs start near their
	// optima, so the warm week spends fewer simplex pivots than the cold one.
	if warmStats.LPIterations >= coldStats.LPIterations {
		t.Errorf("warm week spent %d pivots, cold %d — the carried root bases saved no LP work",
			warmStats.LPIterations, coldStats.LPIterations)
	}
	t.Logf("pivots warm %d / cold %d, nodes warm %d / cold %d",
		warmStats.LPIterations, coldStats.LPIterations, warmStats.Nodes, coldStats.Nodes)
}
