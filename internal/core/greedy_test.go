package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"billcap/internal/dcmodel"
	"billcap/internal/piecewise"
	"billcap/internal/pricing"
)

// greedyDecide answers in from the greedy rung: a fresh ladder whose solver
// is forced to fail at the hour.
func greedyDecide(t testing.TB, sys *System, in HourInput) Decision {
	t.Helper()
	r := NewResilient(sys, ResilientOptions{})
	r.InjectSolverFailure(in.Hour)
	dec := r.Decide(in)
	if dec.Degraded != DegradeFallback {
		t.Fatalf("degraded = %v, want %v", dec.Degraded, DegradeFallback)
	}
	return dec
}

// checkGreedySafety asserts the rung's contract on a decision for the
// sanitized input in: every site within its SLA limit and its power cap
// minus the rounding slack, down sites unloaded, no more served than
// arrived, and premium counted first.
func checkGreedySafety(t testing.TB, sys *System, in HourInput, dec Decision) {
	t.Helper()
	if len(dec.Sites) != len(sys.models) {
		t.Fatalf("decision has %d sites, system has %d", len(dec.Sites), len(sys.models))
	}
	for i, a := range dec.Sites {
		sm := sys.models[i]
		dc := sm.site.DC
		if !(a.Lambda >= 0) {
			t.Fatalf("site %d: lambda %v", i, a.Lambda)
		}
		if a.Lambda == 0 {
			continue
		}
		if in.SiteDown(i) {
			t.Fatalf("down site %d loaded with %v", i, a.Lambda)
		}
		if a.Lambda > sm.maxLambda*(1+1e-9) {
			t.Fatalf("site %d: lambda %v exceeds SLA limit %v", i, a.Lambda, sm.maxLambda)
		}
		if limit := dc.PowerCapMW - dc.RoundingSlackMW(); !(a.PowerMW <= limit+1e-9*(1+dc.PowerCapMW)) {
			t.Fatalf("site %d: draw %v MW exceeds cap %v − slack %v", i, a.PowerMW, dc.PowerCapMW, dc.RoundingSlackMW())
		}
	}
	if dec.Served > in.TotalLambda*(1+1e-9) {
		t.Fatalf("served %v > arrivals %v", dec.Served, in.TotalLambda)
	}
	if want := math.Min(in.PremiumLambda, dec.Served); dec.ServedPremium != want {
		t.Fatalf("servedPremium %v, want min(premium=%v, served=%v)", dec.ServedPremium, in.PremiumLambda, dec.Served)
	}
	if dec.ServedOrdinary != dec.Served-dec.ServedPremium {
		t.Fatalf("servedOrdinary %v, want served %v − premium %v", dec.ServedOrdinary, dec.Served, dec.ServedPremium)
	}
}

// TestGreedyRungKeepsBudgetUnderDemandCharge is the rung's budget contract
// under a demand charge. Peaks sit at the premium-only plan's draws, so
// every MW above them costs 1,500 $ on top of energy: a fill that prices
// energy alone spends several times the budget on ordinary load.
func TestGreedyRungKeepsBudgetUnderDemandCharge(t *testing.T) {
	sys := paperSystem(t, Options{})
	in := goodInput(3)
	prem, err := sys.MinimizeCost(in, in.PremiumLambda, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.DemandChargeUSDPerMW = 1500
	in.PeakMW = make([]float64, len(prem.Sites))
	for i, a := range prem.Sites {
		in.PeakMW[i] = a.PowerMW
	}
	for _, f := range []float64{1.05, 1.2, 1.5, 2} {
		in.BudgetUSD = f * prem.PredictedCostUSD
		r := NewResilient(sys, ResilientOptions{})
		r.InjectSolverFailure(in.Hour)
		dec := r.Decide(in)
		if dec.Degraded != DegradeFallback {
			t.Fatalf("%v× budget: degraded = %v, want %v", f, dec.Degraded, DegradeFallback)
		}
		// budgetSlack is the float tolerance decideSteps grants the same test.
		if dec.PredictedCostUSD > in.BudgetUSD*(1+budgetSlack)+budgetSlack {
			t.Errorf("%v× budget: predicted bill %v (demand charge %v) over budget %v",
				f, dec.PredictedCostUSD, dec.DemandChargeUSD, in.BudgetUSD)
		}
		if err := r.auditDecision(in, dec); err != nil {
			t.Errorf("%v× budget: %v", f, err)
		}
		if rel := math.Abs(dec.ServedPremium-in.PremiumLambda) / in.PremiumLambda; rel > 1e-6 {
			t.Errorf("%v× budget: served %v premium of %v", f, dec.ServedPremium, in.PremiumLambda)
		}
	}
}

// twoSiteSystem is a hand-checkable fleet: two paper sites, one on a flat
// 10 $/MWh tariff and one on a flat 30 $/MWh tariff. The cheap site is also
// the cheaper one per request.
func twoSiteSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(dcmodel.PaperSites()[:2], []pricing.Policy{
		{Name: "cheap", Fn: piecewise.Flat(10)},
		{Name: "dear", Fn: piecewise.Flat(30)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func twoSiteInput(total, premium, budget float64) HourInput {
	return HourInput{Hour: 1, TotalLambda: total, PremiumLambda: premium, DemandMW: []float64{50, 50}, BudgetUSD: budget}
}

func TestGreedyRungFillsCheapestSiteFirst(t *testing.T) {
	sys := twoSiteSystem(t)
	total := 0.8 * sys.models[0].maxLambda
	d := greedyDecide(t, sys, twoSiteInput(total, 0, math.Inf(1)))
	if d.Sites[0].Lambda < total*(1-1e-9) || d.Sites[1].On {
		t.Fatalf("cheap site got %v, dear site on=%v; want all %v on the cheap site",
			d.Sites[0].Lambda, d.Sites[1].On, total)
	}
}

func TestGreedyRungOverflowsToSecondSiteAtCap(t *testing.T) {
	sys := twoSiteSystem(t)
	total := sys.models[0].maxLambda + 0.5*sys.models[1].maxLambda
	in := twoSiteInput(total, 0, math.Inf(1))
	d := greedyDecide(t, sys, in)
	checkGreedySafety(t, sys, in, d)
	if rel := math.Abs(d.Sites[0].Lambda-sys.models[0].maxLambda) / total; rel > 1e-9 {
		t.Errorf("cheap site got %v, want its limit %v", d.Sites[0].Lambda, sys.models[0].maxLambda)
	}
	if rel := math.Abs(d.Served-total) / total; rel > 1e-9 {
		t.Errorf("served %v of %v", d.Served, total)
	}
}

func TestGreedyRungServesPremiumOnZeroBudget(t *testing.T) {
	sys := twoSiteSystem(t)
	total := sys.models[0].maxLambda + 0.5*sys.models[1].maxLambda
	premium := 0.5 * sys.models[0].maxLambda
	d := greedyDecide(t, sys, twoSiteInput(total, premium, 0))
	if rel := math.Abs(d.ServedPremium-premium) / premium; rel > 1e-9 {
		t.Fatalf("premium served %v of %v under a zero budget", d.ServedPremium, premium)
	}
	if d.ServedOrdinary > total*1e-9 {
		t.Errorf("ordinary %v admitted despite a zero budget", d.ServedOrdinary)
	}
	if d.PredictedCostUSD <= 0 {
		t.Errorf("premium service cannot be free, cost=%v", d.PredictedCostUSD)
	}
}

func TestGreedyRungBudgetBoundsOrdinaryAdmission(t *testing.T) {
	sys := twoSiteSystem(t)
	total := sys.models[0].maxLambda + 0.5*sys.models[1].maxLambda
	premium := 0.1 * total
	uncapped := greedyDecide(t, sys, twoSiteInput(total, premium, math.Inf(1)))
	budget := uncapped.PredictedCostUSD / 2
	d := greedyDecide(t, sys, twoSiteInput(total, premium, budget))
	if d.PredictedCostUSD > budget {
		t.Fatalf("cost %v exceeds budget %v", d.PredictedCostUSD, budget)
	}
	if d.ServedOrdinary <= 0 {
		t.Errorf("a half budget should still admit some ordinary traffic")
	}
	if d.Served >= uncapped.Served {
		t.Errorf("capped run served %v ≥ uncapped %v", d.Served, uncapped.Served)
	}
}

func TestGreedyRungSkipsDownSites(t *testing.T) {
	sys := twoSiteSystem(t)
	in := twoSiteInput(0.5*sys.models[1].maxLambda, 0, math.Inf(1))
	in.Down = []bool{true, false}
	d := greedyDecide(t, sys, in)
	if d.Sites[0].On || d.Sites[0].Lambda != 0 {
		t.Fatalf("down site was loaded: %+v", d.Sites[0])
	}
	if rel := math.Abs(d.Sites[1].Lambda-in.TotalLambda) / in.TotalLambda; rel > 1e-9 {
		t.Errorf("surviving site carries %v of %v", d.Sites[1].Lambda, in.TotalLambda)
	}
}

// TestGreedyRungStopsBelowStepBoundary: one site whose price jumps from 10
// to 40 $/MWh at 110 MW regional load, with 50 MW of background demand. An
// uncapped hour fills the site into the dear step; a budget that affords
// only the cheap step keeps its draw the rounding slack below the boundary.
func TestGreedyRungStopsBelowStepBoundary(t *testing.T) {
	const demand, boundary = 50.0, 110.0
	sys, err := NewSystem(dcmodel.PaperSites()[:1], []pricing.Policy{
		{Name: "stepped", Fn: piecewise.MustNew([]float64{boundary}, []float64{10, 40})},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := sys.models[0].maxLambda
	in := HourInput{Hour: 1, TotalLambda: total, DemandMW: []float64{demand}, BudgetUSD: math.Inf(1)}
	d := greedyDecide(t, sys, in)
	if rel := math.Abs(d.Served-total) / total; rel > 1e-9 {
		t.Fatalf("served %v of %v with no budget", d.Served, total)
	}
	if d.Sites[0].PriceUSDPerMWh != 40 {
		t.Errorf("price %v, want the 40 $/MWh step", d.Sites[0].PriceUSDPerMWh)
	}

	// The whole cheap step costs under 10 $/MWh × 60 MW; entering the dear
	// step costs 40 $/MWh × 60 MW.
	in.BudgetUSD = 10 * (boundary - demand)
	d = greedyDecide(t, sys, in)
	slack := sys.Sites[0].DC.RoundingSlackMW()
	if load := demand + d.Sites[0].PowerMW; load > boundary-slack+1e-9 {
		t.Errorf("regional load %v MW within the %v MW slack of the %v MW boundary", load, slack, boundary)
	}
	if d.Sites[0].PriceUSDPerMWh != 10 {
		t.Errorf("price %v, want the cheap step", d.Sites[0].PriceUSDPerMWh)
	}
	if d.Served < 0.9*(boundary-demand-slack)/sys.models[0].plans[0].A {
		t.Errorf("served %v: the budget affords nearly the whole cheap step", d.Served)
	}
}

// TestGreedyRungSurvivesCorruptInputs: corrupt totals, premium and budgets
// reach the rung only through the ladder's sanitizer, and every one still
// yields a safe greedy plan.
func TestGreedyRungSurvivesCorruptInputs(t *testing.T) {
	sys := paperSystem(t, Options{})
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ total, premium, budget float64 }{
		{nan, nan, nan},
		{inf, 1e11, -4},
		{1e11, 2e11, inf},
		{-1e12, -inf, -inf},
		{inf, inf, 0},
	} {
		in := goodInput(2)
		in.TotalLambda, in.PremiumLambda, in.BudgetUSD = c.total, c.premium, c.budget
		d := greedyDecide(t, sys, in)
		checkGreedySafety(t, sys, NewResilient(sys, ResilientOptions{}).sanitize(in), d)
	}
}

func TestGreedyRungIsDeterministic(t *testing.T) {
	sys := paperSystem(t, Options{})
	in := goodInput(4)
	in.BudgetUSD = 900
	in.DemandChargeUSDPerMW = 1500
	in.PeakMW = []float64{40, 20, 30}
	a := greedyDecide(t, sys, in)
	b := greedyDecide(t, sys, in)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same input produced different plans:\n%+v\n%+v", a, b)
	}
}

// randomStepPolicy draws a step tariff with 2–6 steps whose rates mostly
// rise but sometimes dip: the fill must not assume monotone prices.
func randomStepPolicy(rng *rand.Rand) pricing.Policy {
	steps := 2 + rng.Intn(5)
	thresholds := make([]float64, steps-1)
	lo := 50 + rng.Float64()*150
	for k := range thresholds {
		lo += 30 + rng.Float64()*200
		thresholds[k] = lo
	}
	rates := make([]float64, steps)
	r := 5 + rng.Float64()*10
	for k := range rates {
		rates[k] = r
		r = math.Max(1, r-2+rng.Float64()*12)
	}
	return pricing.Policy{Name: "random", Fn: piecewise.MustNew(thresholds, rates)}
}

// TestGreedyRungProperties is the rung's contract on randomized fleets and
// hours: step tariffs, outages, demand charges against random peaks and
// two-settlement hours. Beyond checkGreedySafety, ordinary traffic is only
// admitted while the predicted bill fits the budget; premium alone may
// exceed it, by mandate.
func TestGreedyRungProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(6)
		policies := make([]pricing.Policy, n)
		for i := range policies {
			policies[i] = randomStepPolicy(rng)
		}
		sys, err := NewSystem(dcmodel.SyntheticSites(n), policies, Options{})
		if err != nil {
			t.Fatal(err)
		}
		in := HourInput{Hour: trial, DemandMW: make([]float64, n), Down: make([]bool, n), BudgetUSD: math.Inf(1)}
		capacity := 0.0
		for i, sm := range sys.models {
			in.DemandMW[i] = rng.Float64() * 500
			in.Down[i] = rng.Intn(5) == 0
			if !in.Down[i] {
				capacity += sm.maxLambda
			}
		}
		in.TotalLambda = rng.Float64() * 2 * (capacity + 1)
		in.PremiumLambda = rng.Float64() * in.TotalLambda * 1.1 // sometimes > total
		switch rng.Intn(3) {
		case 0:
			in.BudgetUSD = 0
		case 1:
			in.BudgetUSD = rng.Float64() * 5000
		}
		if rng.Intn(2) == 0 {
			in.DemandChargeUSDPerMW = rng.Float64() * 2000
			in.PeakMW = make([]float64, n)
			for i, sm := range sys.models {
				in.PeakMW[i] = rng.Float64() * sm.site.DC.PowerCapMW
			}
		}
		if rng.Intn(4) == 0 {
			in.RTPriceUSDPerMWh = make([]float64, n)
			in.CommitMW = make([]float64, n)
			for i, sm := range sys.models {
				in.RTPriceUSDPerMWh[i] = 5 + rng.Float64()*30
				in.CommitMW[i] = rng.Float64() * sm.site.DC.PowerCapMW / 2
			}
		}

		d := greedyDecide(t, sys, in)
		san := NewResilient(sys, ResilientOptions{}).sanitize(in)
		checkGreedySafety(t, sys, san, d)
		if d.ServedOrdinary > 1e-6*(1+san.TotalLambda) && d.PredictedCostUSD > san.BudgetUSD*(1+1e-9)+1e-6 {
			t.Fatalf("trial %d: cost %v > budget %v with ordinary traffic %v admitted",
				trial, d.PredictedCostUSD, san.BudgetUSD, d.ServedOrdinary)
		}
	}
}

// FuzzGreedyRung drives the rung on the paper's three sites with the
// solver failure forced, through the ladder's sanitizer, with every input
// the fuzzer likes: NaN, ±Inf and negative values included.
func FuzzGreedyRung(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(1.5e12, 1.2e12, 500.0, 170.0, 190.0, 150.0, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(1.5e12, 1.2e12, 700.0, 170.0, 190.0, 150.0, 60.0, 30.0, 40.0, 1500.0, uint8(1))
	f.Add(nan, nan, nan, nan, inf, -inf, nan, -1.0, inf, nan, uint8(7))
	f.Add(inf, -1.0, -inf, -5.0, 1e308, 0.0, 1e308, 0.0, 1e-300, 1e308, uint8(2))
	f.Add(3e12, inf, 1e9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e300, uint8(4))
	sys, err := NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, total, premium, budget, d0, d1, d2, p0, p1, p2, dc float64, down uint8) {
		in := HourInput{
			Hour:                 1,
			TotalLambda:          total,
			PremiumLambda:        premium,
			BudgetUSD:            budget,
			DemandMW:             []float64{d0, d1, d2},
			Down:                 []bool{down&1 != 0, down&2 != 0, down&4 != 0},
			DemandChargeUSDPerMW: dc,
			PeakMW:               []float64{p0, p1, p2},
		}
		d := greedyDecide(t, sys, in)
		checkGreedySafety(t, sys, NewResilient(sys, ResilientOptions{}).sanitize(in), d)
	})
}
