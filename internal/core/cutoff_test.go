package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// referenceDecide is decideSteps' two-step algorithm built from step
// solvers that take no cutoff: the exported MinimizeCost and
// MaximizeThroughput for steps 1 and 2, the same solvers at the kinds of the
// premium rungs, and above the decomposition threshold their decomposition
// drop-ins under the system's plain solve options.
func referenceDecide(s *System, in HourInput) (Decision, error) {
	var stats SolverStats
	so := s.solveOptions()
	minCost := func(in HourInput, lambda float64, kind solveKind) (Decision, error) {
		switch {
		case s.routeDecomp(in):
			return s.decompMinCost(in, lambda, &stats, so, kind)
		case kind == kindMinCostTotal:
			return s.MinimizeCost(in, lambda, &stats)
		}
		return s.minimizeCost(in, lambda, &stats, so, kind)
	}
	maxThroughput := func(in HourInput, kind solveKind) (Decision, error) {
		switch {
		case s.routeDecomp(in):
			return s.decompMaxThroughput(in, &stats, so, kind)
		case kind == kindMaxThroughput:
			return s.MaximizeThroughput(in, &stats)
		}
		return s.maximizeThroughput(in, &stats, so, kind)
	}
	split := func(d Decision, st Step, premiumOnly bool) Decision {
		d.Step = st
		d.ServedPremium = math.Min(in.PremiumLambda, d.Served)
		if premiumOnly {
			d.ServedPremium = d.Served
		}
		d.ServedOrdinary = d.Served - d.ServedPremium
		if stats.Timeouts > 0 {
			d.Degraded = DegradeTimeLimit
		}
		return d
	}

	d1, err := minCost(in, in.TotalLambda, kindMinCostTotal)
	overCapacity := err != nil
	switch {
	case err == nil && d1.PredictedCostUSD <= budgetThreshold(in.BudgetUSD):
		return split(d1, StepCostMin, false), nil
	case err == nil:
		in.Warm = d1.Warm
	case !errors.Is(err, ErrInfeasible):
		return Decision{}, err
	}
	d2, err := maxThroughput(in, kindMaxThroughput)
	if err != nil {
		return Decision{}, err
	}
	if d2.Served+budgetSlack*in.TotalLambda >= in.PremiumLambda {
		if overCapacity {
			return split(d2, StepOverCapacity, false), nil
		}
		return split(d2, StepBudgetCapped, false), nil
	}
	in.Warm = d2.Warm
	d3, err := minCost(in, in.PremiumLambda, kindMinCostPremium)
	if err == nil {
		return split(d3, StepPremiumOnly, true), nil
	}
	if !errors.Is(err, ErrInfeasible) {
		return Decision{}, err
	}
	inPrem := in
	inPrem.TotalLambda = in.PremiumLambda
	inPrem.BudgetUSD = math.Inf(1)
	d4, err := maxThroughput(inPrem, kindMaxPremiumUncapped)
	if err != nil {
		return Decision{}, err
	}
	return split(d4, StepOverCapacity, true), nil
}

// TestStepOneCutoffMovesNoAnswer: stopping step 1 at its budget cutoff
// moves no answer. Seeded hours on 3, 13 and 50 sites (the last on the
// decomposition) go through DecideHour and through referenceDecide, which
// solves step 1 in full, with budgets from zero through just below, at and
// just above each hour's uncapped cost (its minimum cost when it is within
// capacity), loads at 0.99–1.01× the capacity of
// the sites up, and hours with a site down. Every Decision field but Solver
// must be equal, the step and the bases to hand on included, and each hour
// starts from the bases the one before handed on.
func TestStepOneCutoffMovesNoAnswer(t *testing.T) {
	cases := []struct {
		name  string
		s     *System
		hours int
	}{
		{"3-sites", paperSystem(t, Options{}), 36},
		{"13-sites", syntheticSystem(t, 13, Options{}), 16},
		{"50-sites-decomp", syntheticSystem(t, 50, Options{Decompose: true}), 12},
	}
	budgets := []float64{0, 0.5, 1 - 1e-3, 1 - 1e-4, 1 - 3e-5, 1 - 1e-5, 1 - 1e-6, 1, 1 + 1e-6, 1 + 1e-3}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, n := c.s, c.s.NumSites()
			r := rand.New(rand.NewSource(int64(n)))
			var warm RootBases
			steps := map[Step]int{}
			cutoffs := 0
			for h := 0; h < c.hours; h++ {
				in := HourInput{Hour: h, DemandMW: make([]float64, n), BudgetUSD: math.Inf(1)}
				for i := range in.DemandMW {
					in.DemandMW[i] = []float64{150, 160, 140}[i%3] + 7*float64(i/3) + 80*r.Float64()
				}
				if h%5 == 3 {
					in.Down = make([]bool, n)
					in.Down[r.Intn(n)] = true
				}
				up := 0.0
				for i, m := range s.models {
					if !in.SiteDown(i) {
						up += m.maxLambda
					}
				}
				frac := 0.2 + 0.75*r.Float64()
				if h%3 == 0 {
					frac = 0.99 + 0.02*r.Float64()
				}
				in.TotalLambda = frac * up
				in.PremiumLambda = (0.2 + 0.6*r.Float64()) * in.TotalLambda

				// The hour's uncapped cost: its minimum cost, or over capacity
				// the cost of the most it can carry.
				in.Warm = warm
				uncapped, err := referenceDecide(s, in)
				if err != nil {
					t.Fatalf("hour %d uncapped: %v", h, err)
				}
				for _, f := range budgets {
					in.BudgetUSD = f * uncapped.PredictedCostUSD
					got, errGot := s.DecideHour(in)
					want, errWant := referenceDecide(s, in)
					if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
						t.Fatalf("hour %d budget %v: DecideHour err %v, reference err %v", h, in.BudgetUSD, errGot, errWant)
					}
					if errGot != nil {
						continue
					}
					cutoffs += got.Solver.Cutoffs
					steps[got.Step]++
					got.Solver, want.Solver = SolverStats{}, SolverStats{}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("hour %d budget %v (%.6g× uncapped): DecideHour %v serves %v at $%v, reference %v serves %v at $%v; sites equal %v, bases equal %v",
							h, in.BudgetUSD, f, got.Step, got.Served, got.PredictedCostUSD, want.Step, want.Served, want.PredictedCostUSD,
							reflect.DeepEqual(got.Sites, want.Sites), reflect.DeepEqual(got.Warm, want.Warm))
					}
					in.Warm = got.Warm
				}
				warm = in.Warm
			}
			t.Logf("steps %v, %d step-1 cutoffs", steps, cutoffs)
			if cutoffs == 0 || steps[StepOverCapacity] == 0 || steps[StepBudgetCapped] == 0 {
				t.Errorf("the hours never cut step 1 or never reached both over-capacity and budget-capped: steps %v, %d cutoffs", steps, cutoffs)
			}
		})
	}
}

// TestStepOneCutoffOnlyOnEnergyOnlyOneClassHours: a $1 hour stops step 1 at
// its cutoff on the paper's one-class fleet, and does not once the hour has
// a tariff extra, here a demand charge, or the fleet has multi-class sites
// (see stepOneOptions).
func TestStepOneCutoffOnlyOnEnergyOnlyOneClassHours(t *testing.T) {
	in := tariffIn()
	in.BudgetUSD = 1
	demand := in
	demand.DemandChargeUSDPerMW = 1500
	cases := []struct {
		name string
		s    *System
		in   HourInput
		want int
	}{
		{"energy-only", paperSystem(t, Options{}), in, 1},
		{"demand-charge", paperSystem(t, Options{}), demand, 0},
		{"multi-class", heteroSystem(t), in, 0},
	}
	for _, c := range cases {
		d := decide(t, c.s, c.in)
		if d.Step == StepCostMin || d.Solver.Cutoffs != c.want {
			t.Errorf("%s: step %v with %d cutoffs, want an over-budget step with %d", c.name, d.Step, d.Solver.Cutoffs, c.want)
		}
	}
}
