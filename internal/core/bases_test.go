package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"billcap/internal/dcmodel"
	"billcap/internal/milp"
	"billcap/internal/pricing"
)

// simWeek builds a deterministic pseudo-diurnal week of inputs for n sites
// that walks through every branch of the two-step algorithm: abundant and
// tight budgets, light and heavy hours, and a few single-site outages. Load
// scales with the fleet, and site i's background demand follows the paper
// site it copies, shifted 7 MW per cycle like pricing.Synthetic's price
// thresholds, so demand moves price segments into and out of reach.
func simWeek(seed int64, n int, tightBudget, looseBudget float64) []HourInput {
	r := rand.New(rand.NewSource(seed))
	ins := make([]HourInput, 168)
	for h := range ins {
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(h%24)/24)
		total := 1.4e12 * float64(n) / 3 * diurnal * (0.9 + 0.2*r.Float64())
		in := HourInput{
			Hour:          h,
			TotalLambda:   total,
			PremiumLambda: total * (0.3 + 0.2*r.Float64()),
			DemandMW:      make([]float64, n),
			BudgetUSD:     looseBudget,
		}
		for i := range in.DemandMW {
			in.DemandMW[i] = []float64{150, 160, 140}[i%3] + 7*float64(i/3) + 60*r.Float64()
		}
		if h%3 == 1 {
			in.BudgetUSD = tightBudget
		}
		if h%41 == 40 {
			in.Down = make([]bool, n)
			in.Down[r.Intn(n)] = true
		}
		ins[h] = in
	}
	return ins
}

// calibratedWeek is simWeek with the tight budget at half of an average
// hour's uncapped cost on s, so step 2 binds often, and the loose one at ten
// times it.
func calibratedWeek(t *testing.T, s *System, seed int64) []HourInput {
	t.Helper()
	n := s.NumSites()
	probe := HourInput{
		TotalLambda:   1.2e12 * float64(n) / 3,
		PremiumLambda: 6e11 * float64(n) / 3,
		DemandMW:      make([]float64, n),
		BudgetUSD:     math.Inf(1),
	}
	for i := range probe.DemandMW {
		probe.DemandMW[i] = demand3()[i%3] + 7*float64(i/3)
	}
	d, err := s.DecideHour(probe)
	if err != nil {
		t.Fatal(err)
	}
	return simWeek(seed, n, d.PredictedCostUSD*0.5, d.PredictedCostUSD*10)
}

// weekMatchesCold decides a seeded week hour by hour on s twice: cold, and
// warm, each hour starting from the root bases the previous warm hour handed
// on (Decision.Warm). It checks that the warm week reproduces the cold
// decisions: same branch every hour and the same step objective to within
// the solver's optimality gap, each decision feasible in its own right. It
// returns both weeks' solver stats.
func weekMatchesCold(t *testing.T, s *System) (coldStats, warmStats SolverStats) {
	t.Helper()
	var warm RootBases
	for _, in := range calibratedWeek(t, s, 7) {
		dc, errC := s.DecideHour(in)
		win := in
		win.Warm = warm
		dw, errW := s.DecideHour(win)
		if (errC == nil) != (errW == nil) {
			t.Fatalf("hour %d: cold err %v vs warm err %v", in.Hour, errC, errW)
		}
		if errC != nil {
			continue
		}
		warm = dw.Warm
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
			dcSite := s.Sites[i].DC
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
	if coldStats.WarmStarts != 0 {
		t.Errorf("the cold week reports %d warm starts", coldStats.WarmStarts)
	}
	t.Logf("pivots warm %d / cold %d, nodes warm %d / cold %d, warm roots %d of %d",
		warmStats.LPIterations, coldStats.LPIterations, warmStats.Nodes, coldStats.Nodes,
		warmStats.WarmStarts, warmStats.Solves)
	return coldStats, warmStats
}

// TestCarriedBasisWeekMatchesCold is the carried root bases' end-to-end
// equivalence property on the paper's three sites (see weekMatchesCold),
// and the bases must save LP work: the week's root LPs start near their
// optima, so the warm week spends fewer simplex pivots than the cold one.
// Run under -race in CI.
func TestCarriedBasisWeekMatchesCold(t *testing.T) {
	coldStats, warmStats := weekMatchesCold(t, paperSystem(t, Options{}))
	if warmStats.LPIterations >= coldStats.LPIterations {
		t.Errorf("warm week spent %d pivots, cold %d — the carried root bases saved no LP work",
			warmStats.LPIterations, coldStats.LPIterations)
	}
}

// TestCarriedBasis13DCWeekMatchesCold holds the same checks on the paper's
// §IV-C scale, 13 synthetic sites with 5-level prices, where demand moves
// price segments into and out of reach and so changes the model's shape from
// hour to hour. The carried basis survives those changes: at least 90% of
// the week's root LPs finish from it, and the week spends fewer pivots than
// cold.
func TestCarriedBasis13DCWeekMatchesCold(t *testing.T) {
	coldStats, warmStats := weekMatchesCold(t, syntheticSystem(t, 13, Options{}))
	if warmStats.WarmStarts*10 < warmStats.Solves*9 {
		t.Errorf("%d of %d root LPs finished from the carried basis, want at least 90%%",
			warmStats.WarmStarts, warmStats.Solves)
	}
	if warmStats.LPIterations >= coldStats.LPIterations {
		t.Errorf("warm week spent %d pivots, cold %d — the carried root bases saved no LP work",
			warmStats.LPIterations, coldStats.LPIterations)
	}
}

// TestLadderCarriesBasesAcrossTariffHour: the ladder hands each accepted
// MILP answer's root bases to the next hour, and an hour that must not
// move them leaves them as they were. Between energy-only hours it runs a
// tariff hour (a demand charge and batteries), which starts cold, and an
// hour whose MILP rung is forced to fail, which the greedy rung answers.
// Neither moves the bases, so every energy-only hour after the first
// finishes each root LP from a carried basis.
func TestLadderCarriesBasesAcrossTariffHour(t *testing.T) {
	r := NewResilient(paperSystem(t, Options{}), ResilientOptions{})
	energy := func(hour int) HourInput {
		f := 1 + 0.02*float64(hour)
		return HourInput{
			Hour: hour, TotalLambda: 1.2e12 * f, PremiumLambda: 6e11 * f,
			DemandMW: []float64{170 + float64(hour), 190, 150}, BudgetUSD: math.Inf(1),
		}
	}
	first := r.Decide(energy(0))
	if first.Degraded != DegradeNone || first.Solver.Solves == 0 || first.Solver.WarmStarts != 0 {
		t.Fatalf("hour 0: rung %v, %d solves, %d warm; want a cold optimal solve",
			first.Degraded, first.Solver.Solves, first.Solver.WarmStarts)
	}
	carried := r.warm
	if reflect.DeepEqual(carried, RootBases{}) {
		t.Fatal("hour 0 handed on no basis")
	}

	tariff := energy(1)
	tariff.DemandChargeUSDPerMW = 1500
	tariff.PeakMW = []float64{5, 5, 5}
	tariff.Batteries = make([]BatterySpec, 3)
	for i := range tariff.Batteries {
		tariff.Batteries[i] = BatterySpec{CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15,
			Efficiency: 0.9, SoCMWh: 20, ValueUSDPerMWh: 30}
	}
	if d := r.Decide(tariff); d.Degraded != DegradeNone || d.Solver.WarmStarts != 0 {
		t.Fatalf("tariff hour: rung %v, %d warm roots; want an optimal cold solve", d.Degraded, d.Solver.WarmStarts)
	}
	if !reflect.DeepEqual(r.warm, carried) {
		t.Fatal("the tariff hour moved the carried bases")
	}

	r.InjectSolverFailure(2)
	if d := r.Decide(energy(2)); d.Degraded != DegradeFallback {
		t.Fatalf("hour 2 answered at rung %v, want the greedy fallback", d.Degraded)
	}
	if !reflect.DeepEqual(r.warm, carried) {
		t.Fatal("the greedy rung moved the carried bases")
	}

	for hour := 3; hour < 6; hour++ {
		d := r.Decide(energy(hour))
		if d.Degraded != DegradeNone || d.Solver.WarmStarts != d.Solver.Solves {
			t.Fatalf("hour %d: rung %v, %d of %d roots warm; want every root warm",
				hour, d.Degraded, d.Solver.WarmStarts, d.Solver.Solves)
		}
	}
}

// TestHourModelRowKeysUnique: a carried basis names a slack by its row's key
// (relation and variable names), so two rows of one hour model sharing a
// key would make the basis ambiguous. Every model the two-step algorithm
// builds — step 1 for all and for premium load, step 2 capped and uncapped —
// must keep its keys distinct, on every hour of the paper-site week, the
// 13-site week and the heterogeneous paper fleet's week.
func TestHourModelRowKeysUnique(t *testing.T) {
	hetero, err := NewSystem(dcmodel.PaperHeteroSites(), pricing.PaperPolicies(pricing.Policy1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*System{
		"paper":        paperSystem(t, Options{}),
		"synthetic-13": syntheticSystem(t, 13, Options{}),
		"paper-hetero": hetero,
	} {
		for _, in := range simWeek(7, s.NumSites(), 5e4, 5e5) {
			inPrem := in
			inPrem.TotalLambda, inPrem.BudgetUSD = in.PremiumLambda, math.Inf(1)
			var models []*milp.Problem
			for _, lambda := range []float64{in.TotalLambda, in.PremiumLambda} {
				m, _, err := s.buildMinCost(in, lambda, lambdaScale(lambda))
				if err != nil {
					t.Fatalf("%s hour %d: %v", name, in.Hour, err)
				}
				models = append(models, m)
			}
			for _, x := range []HourInput{in, inPrem} {
				m, _, err := s.buildMaxThroughput(x, lambdaScale(x.TotalLambda))
				if err != nil {
					t.Fatalf("%s hour %d: %v", name, in.Hour, err)
				}
				models = append(models, m)
			}
			for k, m := range models {
				seen := map[uint64]int{}
				for row, key := range m.RowKeys() {
					if other, dup := seen[key]; dup {
						t.Fatalf("%s hour %d model %d: rows %d and %d share key %#x", name, in.Hour, k, other, row, key)
					}
					seen[key] = row
				}
			}
		}
	}
}
