package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// TestDecideHourInvariantsProperty drives the two-step algorithm with
// random hours and checks the contracts the rest of the system relies on.
func TestDecideHourInvariantsProperty(t *testing.T) {
	s := paperSystem(t, Options{})
	capacity := s.MaxThroughput()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lam := r.Float64() * 1.2 * capacity // sometimes over capacity
		premFrac := r.Float64()
		budget := math.Inf(1)
		switch r.Intn(3) {
		case 0:
			budget = r.Float64() * 2000 // possibly binding hourly budget
		case 1:
			budget = 0
		}
		in := HourInput{
			TotalLambda:   lam,
			PremiumLambda: premFrac * lam,
			DemandMW: []float64{
				90 + 200*r.Float64(), 95 + 200*r.Float64(), 80 + 200*r.Float64(),
			},
			BudgetUSD: budget,
		}
		d, err := s.DecideHour(in)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Never serve more than arrives (within float tolerance).
		if d.Served > lam*(1+1e-9)+1 {
			t.Logf("seed %d: served %v > arrivals %v", seed, d.Served, lam)
			return false
		}
		// Premium + ordinary = served.
		if math.Abs(d.ServedPremium+d.ServedOrdinary-d.Served) > 1e-6*(1+d.Served) {
			t.Logf("seed %d: split %v+%v != %v", seed, d.ServedPremium, d.ServedOrdinary, d.Served)
			return false
		}
		// Premium is sacrificed only past physical capacity.
		if d.Step != StepOverCapacity && d.ServedPremium < in.PremiumLambda*(1-1e-9)-1 {
			t.Logf("seed %d: step %v dropped premium %v of %v", seed, d.Step, d.ServedPremium, in.PremiumLambda)
			return false
		}
		// Budget respected except in the premium-mandatory branches.
		if d.Step == StepCostMin || d.Step == StepBudgetCapped {
			if d.PredictedCostUSD > budget*(1+1e-6)+1e-3 {
				t.Logf("seed %d: step %v cost %v over budget %v", seed, d.Step, d.PredictedCostUSD, budget)
				return false
			}
		}
		// Per-site allocations are nonnegative and within believed limits.
		for i, a := range d.Sites {
			if a.Lambda < 0 {
				t.Logf("seed %d: site %d negative λ", seed, i)
				return false
			}
			if !a.On && a.Lambda != 0 {
				t.Logf("seed %d: site %d off but loaded", seed, i)
				return false
			}
		}
		// The realization never drops meaningful load for in-capacity hours.
		real, err := s.Realize(d.Lambdas(), in.DemandMW)
		if err != nil {
			t.Logf("seed %d: realize: %v", seed, err)
			return false
		}
		if real.DroppedLambda > 1e-6*(1+d.Served) {
			t.Logf("seed %d: realization dropped %v", seed, real.DroppedLambda)
			return false
		}
		if real.CapViolations != 0 {
			t.Logf("seed %d: %d cap violations from the cap-aware capper", seed, real.CapViolations)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAblationOrderingProperty: on any in-capacity hour, the fully informed
// optimizer's realized bill is never worse than the degraded variants'
// beyond discretization noise.
func TestAblationOrderingProperty(t *testing.T) {
	full := paperSystem(t, Options{})
	a1 := paperSystem(t, Options{Scope: dcmodel.ServerOnly, PriceView: ViewLMP})
	a2 := paperSystem(t, Options{Scope: dcmodel.FullPower, PriceView: ViewFlatAvg})
	_ = pricing.Policy1
	capacity := full.MaxThroughput()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lam := (0.1 + 0.8*r.Float64()) * capacity
		in := HourInput{
			TotalLambda: lam,
			DemandMW: []float64{
				90 + 180*r.Float64(), 95 + 180*r.Float64(), 80 + 180*r.Float64(),
			},
			BudgetUSD: math.Inf(1),
		}
		df, err := full.MinimizeCost(in, lam, &SolverStats{})
		if err != nil {
			return false
		}
		rf, err := full.Realize(df.Lambdas(), in.DemandMW)
		if err != nil {
			return false
		}
		for _, sys := range []*System{a1, a2} {
			da, err := sys.MinimizeCost(in, lam, &SolverStats{})
			if err != nil {
				return false
			}
			ra, err := full.Realize(da.Lambdas(), in.DemandMW)
			if err != nil {
				return false
			}
			// 2% discretization/boundary tolerance.
			if rf.BillUSD() > ra.BillUSD()*1.02+1 {
				t.Logf("seed %d: full model %v worse than ablated %v", seed, rf.BillUSD(), ra.BillUSD())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLightHourServesLoad pins the big-M tightening of the on/off capacity
// link. With the raw site capacity as big-M, a light hour (λ ≈ 1e4× below
// fleet capacity) admits a relaxation point whose on/off y is within
// integrality tolerance of zero yet still licenses the full load — the MILP
// then "optimally" serves everything with every site off, and extraction
// zeroes the hour. Found by TestDecideHourInvariantsProperty at seed
// 6909396765408288749.
func TestLightHourServesLoad(t *testing.T) {
	s := paperSystem(t, Options{})
	in := HourInput{
		TotalLambda:   1.855848815864389e+07, // ≈1e-5 of fleet capacity
		PremiumLambda: 5.296395220644906e+06,
		DemandMW:      []float64{271.88, 274.26, 278.81},
		BudgetUSD:     math.Inf(1),
	}
	d, err := s.DecideHour(in)
	if err != nil {
		t.Fatal(err)
	}
	if d.Served < in.TotalLambda*(1-1e-9)-1 {
		t.Fatalf("light hour served %v of %v", d.Served, in.TotalLambda)
	}
	if d.ServedPremium < in.PremiumLambda*(1-1e-9)-1 {
		t.Fatalf("light hour served premium %v of %v", d.ServedPremium, in.PremiumLambda)
	}
	on := 0
	for _, a := range d.Sites {
		if a.On {
			on++
		}
	}
	if on == 0 {
		t.Fatal("load served with every site off")
	}
}

// TestHigherBudgetNeverServesLess is the paper's Fig. 10 property hour by
// hour: on 40 seeded 3-site hours, sweeping the budget from 0 to past the
// hour's minimum cost never serves less at a higher budget, whichever
// branch answers and whether or not step 1 stops at its cutoff (the sweep
// crosses it on every hour). Two allowances, each exact, cover what the
// algorithm trades by definition, and 1e-9·λ covers the LP's rounding:
//   - step 2 maximizes Σx − ε·cost with x in scaled load units, so of two
//     plans it may pick one serving up to ε·scale·Δcost req/h less that
//     costs Δcost dollars less (see epsilon);
//   - a step-2 plan within budgetSlack·λ of the premium load counts as
//     serving premium, so leaving the premium-only branch may cost that much.
func TestHigherBudgetNeverServesLess(t *testing.T) {
	s := paperSystem(t, Options{})
	capacity := s.MaxThroughput()
	r := rand.New(rand.NewSource(10))
	traded, cutoffs := 0, 0
	for h := 0; h < 40; h++ {
		lam := (0.2 + 0.75*r.Float64()) * capacity
		in := HourInput{
			Hour:          h,
			TotalLambda:   lam,
			PremiumLambda: (0.2 + 0.6*r.Float64()) * lam,
			DemandMW:      []float64{90 + 200*r.Float64(), 95 + 200*r.Float64(), 80 + 200*r.Float64()},
			BudgetUSD:     math.Inf(1),
		}
		uncapped, err := s.DecideHour(in)
		if err != nil || uncapped.Step != StepCostMin {
			t.Fatalf("hour %d uncapped: step %v, err %v", h, uncapped.Step, err)
		}
		scale := lambdaScale(lam)
		var prev Decision
		for k := 0; k <= 30; k++ {
			in.BudgetUSD = uncapped.PredictedCostUSD * float64(k) / 25
			d, err := s.DecideHour(in)
			if err != nil {
				t.Fatalf("hour %d budget %v: %v", h, in.BudgetUSD, err)
			}
			cutoffs += d.Solver.Cutoffs
			if k > 0 {
				allow := epsilon*scale*math.Max(0, prev.PredictedCostUSD-d.PredictedCostUSD) + 1e-9*lam
				if prev.Step == StepPremiumOnly {
					allow += budgetSlack * lam
				}
				if d.Served < prev.Served-allow {
					t.Errorf("hour %d: budget %v serves %v (%v), less than %v (%v) at a lower budget, beyond the %v allowance",
						h, in.BudgetUSD, d.Served, d.Step, prev.Served, prev.Step, allow)
				}
				if d.Served < prev.Served {
					traded++
				}
			}
			prev = d
		}
	}
	t.Logf("%d budget steps served less within the allowance, %d step-1 cutoffs", traded, cutoffs)
	if cutoffs == 0 {
		t.Error("no budget of the sweep stopped step 1 at its cutoff")
	}
}
