package core

import (
	"math"
	"strings"
	"testing"

	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// heteroSystem builds the paper's three locations as multi-class fleets.
func heteroSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(dcmodel.PaperHeteroSites(), pricing.PaperPolicies(pricing.Policy1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// serveAll poses an uncapped hour of lam requests/hour.
func serveAll(lam float64) HourInput {
	return HourInput{TotalLambda: lam, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
}

func TestNewSystemRejectsMixedSite(t *testing.T) {
	sites := dcmodel.PaperHeteroSites()
	sites[1].MaxServers = 1000
	_, err := NewSystem(sites, pricing.PaperPolicies(pricing.Policy1), Options{})
	if err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Errorf("site mixing classes with MaxServers: err = %v", err)
	}
	if _, err := NewSystem(dcmodel.PaperHeteroSites(), pricing.PaperPolicies(pricing.Policy1)[:1], Options{}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestMinimizeCostServesAll(t *testing.T) {
	s := heteroSystem(t)
	lam := 0.5 * s.MaxThroughput()
	a, err := s.MinimizeCost(serveAll(lam), lam, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !near(a.Served, lam, 1e-6*lam) {
		t.Errorf("served %v of %v", a.Served, lam)
	}
	if a.PredictedCostUSD <= 0 {
		t.Errorf("cost %v", a.PredictedCostUSD)
	}
	for i, site := range a.Sites {
		sum := 0.0
		for _, l := range site.ClassLambda {
			sum += l
		}
		if !near(sum, site.Lambda, 1e-6*lam) {
			t.Errorf("site %d: class loads %v sum to %v, site carries %v", i, site.ClassLambda, sum, site.Lambda)
		}
	}
	// Realization tracks the prediction.
	r, err := s.Realize(a.Lambdas(), demand3())
	if err != nil {
		t.Fatal(err)
	}
	if r.CapViolations != 0 {
		t.Errorf("cap violations %d", r.CapViolations)
	}
	if rel := math.Abs(r.CostUSD-a.PredictedCostUSD) / a.PredictedCostUSD; rel > 0.03 {
		t.Errorf("realized %v vs predicted %v (rel %.3f)", r.CostUSD, a.PredictedCostUSD, rel)
	}
	// Realized power may only exceed the plan by the rounding slack.
	for i, sr := range r.Sites {
		if sr.PowerMW > a.Sites[i].PowerMW+3*s.Sites[i].DC.RoundingSlackMW()+1e-9 {
			t.Errorf("site %d realized %v vs planned %v", i, sr.PowerMW, a.Sites[i].PowerMW)
		}
		if sr.Lambda > 0 && sr.RespTimeHours > s.Sites[i].DC.RespSLAHours {
			t.Errorf("site %d response time %v above SLA", i, sr.RespTimeHours)
		}
	}
}

func TestMinimizeCostInfeasible(t *testing.T) {
	s := heteroSystem(t)
	lam := 2 * s.MaxThroughput()
	if _, err := s.MinimizeCost(serveAll(lam), lam, nil); err == nil {
		t.Fatal("over-capacity load accepted")
	}
}

func TestMinimizeCostBeatsProportionalSplit(t *testing.T) {
	// The optimizer must not be worse than a naive capacity-proportional
	// dispatch, billed identically.
	s := heteroSystem(t)
	lam := 0.6 * s.MaxThroughput()
	a, err := s.MinimizeCost(serveAll(lam), lam, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := s.Realize(a.Lambdas(), demand3())
	if err != nil {
		t.Fatal(err)
	}
	naive := make([]float64, s.NumSites())
	for i, sm := range s.models {
		naive[i] = lam * sm.maxLambda / s.MaxThroughput()
	}
	nv, err := s.Realize(naive, demand3())
	if err != nil {
		t.Fatal(err)
	}
	if opt.BillUSD() > nv.BillUSD()*1.005 {
		t.Errorf("optimized bill %v above naive %v", opt.BillUSD(), nv.BillUSD())
	}
}

func TestHeterogeneityHelps(t *testing.T) {
	// A dearer class only carries load once every cheaper class is
	// saturated (within tolerance): the greedy structure of the local
	// optimizer must survive the MILP.
	s := heteroSystem(t)
	lam := 0.4 * s.MaxThroughput()
	a, err := s.MinimizeCost(serveAll(lam), lam, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range a.Sites {
		plans := s.models[i].plans
		for c := 1; c < len(plans); c++ {
			if site.ClassLambda[c] > 1e-6*lam {
				prev := site.ClassLambda[c-1]
				if prev < plans[c-1].MaxLambda*(1-1e-6) {
					t.Errorf("site %d: class %d loaded while class %d at %.3g/%.3g",
						i, c, c-1, prev, plans[c-1].MaxLambda)
				}
			}
		}
	}
}

func TestMaximizeThroughputWithinBudget(t *testing.T) {
	s := heteroSystem(t)
	lam := 0.6 * s.MaxThroughput()
	full, err := s.MinimizeCost(serveAll(lam), lam, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Half the uncapped cost: some load must be shed, budget respected.
	in := serveAll(lam)
	in.BudgetUSD = full.PredictedCostUSD / 2
	a, err := s.MaximizeThroughput(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served >= lam*(1-1e-9) {
		t.Errorf("served %v of %v despite a half budget", a.Served, lam)
	}
	if a.Served <= 0 {
		t.Errorf("served nothing with a positive budget")
	}
	if a.PredictedCostUSD > in.BudgetUSD*(1+1e-6) {
		t.Errorf("cost %v above budget %v", a.PredictedCostUSD, in.BudgetUSD)
	}
	in.BudgetUSD = -1
	if _, err := s.MaximizeThroughput(in, nil); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestHeteroDecideHourBranches(t *testing.T) {
	s := heteroSystem(t)
	lam := 0.6 * s.MaxThroughput()
	prem := 0.8 * lam
	full, err := s.MinimizeCost(serveAll(lam), lam, nil)
	if err != nil {
		t.Fatal(err)
	}
	hour := func(budget float64) HourInput {
		in := serveAll(lam)
		in.PremiumLambda, in.BudgetUSD = prem, budget
		return in
	}

	// Abundant budget → step 1 result.
	d := decide(t, s, hour(full.PredictedCostUSD*2))
	if d.Step != StepCostMin || !near(d.PredictedCostUSD, full.PredictedCostUSD, 1e-6*full.PredictedCostUSD) {
		t.Errorf("abundant budget: step %v cost %v, want cost-min at %v", d.Step, d.PredictedCostUSD, full.PredictedCostUSD)
	}

	// Budget between premium floor and full cost → capped, premium kept.
	premOnly, err := s.MinimizeCost(serveAll(prem), prem, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := (premOnly.PredictedCostUSD + full.PredictedCostUSD) / 2
	d = decide(t, s, hour(mid))
	if d.Step != StepBudgetCapped || d.Served < prem*(1-1e-6) {
		t.Errorf("capped hour: step %v served %v, want budget-capped with premium %v", d.Step, d.Served, prem)
	}
	if d.PredictedCostUSD > mid*(1+1e-6) {
		t.Errorf("capped hour cost %v over %v", d.PredictedCostUSD, mid)
	}

	// Budget below the premium floor → premium-only, budget violated.
	d = decide(t, s, hour(1))
	if d.Step != StepPremiumOnly || !near(d.Served, prem, 1e-6*prem) {
		t.Errorf("premium-only: step %v served %v, want %v", d.Step, d.Served, prem)
	}
	if d.PredictedCostUSD <= 1 {
		t.Errorf("premium-only cost %v did not exceed the token budget", d.PredictedCostUSD)
	}

	in := hour(1)
	in.PremiumLambda = 2 * lam
	if _, err := s.DecideHour(in); err == nil {
		t.Error("premium above total accepted")
	}
}

// checkHeteroSafety asserts what every rung owes a multi-class fleet:
// every site within its cap plus slack, every class within its SLA
// ceiling, class loads summing to the site's, and the auditor's consent.
func checkHeteroSafety(t *testing.T, r *Resilient, in HourInput, d Decision) {
	t.Helper()
	for i, a := range d.Sites {
		sm := r.sys.models[i]
		dc := sm.site.DC
		if a.GridMW > dc.PowerCapMW+dc.RoundingSlackMW()+1e-9 {
			t.Errorf("site %d: grid %v MW over cap %v + slack", i, a.GridMW, dc.PowerCapMW)
		}
		if !a.On {
			continue
		}
		sum := 0.0
		for c, l := range a.ClassLambda {
			if l > sm.plans[c].MaxLambda*(1+1e-9) {
				t.Errorf("site %d class %d: λ %v over SLA ceiling %v", i, c, l, sm.plans[c].MaxLambda)
			}
			sum += l
		}
		if !near(sum, a.Lambda, 1e-6*(1+a.Lambda)) {
			t.Errorf("site %d: class loads sum to %v, site carries %v", i, sum, a.Lambda)
		}
	}
	if err := r.auditDecision(in, d); err != nil {
		t.Errorf("audit rejected the %v answer: %v", d.Degraded, err)
	}
}

func TestHeteroLadderFallback(t *testing.T) {
	r := NewResilient(heteroSystem(t), ResilientOptions{})
	lam := 0.7 * r.sys.MaxThroughput()
	in := serveAll(lam)
	in.Hour, in.PremiumLambda = 5, 0.5*lam
	r.InjectSolverFailure(in.Hour)
	d := r.Decide(in)
	if d.Degraded != DegradeFallback {
		t.Fatalf("rung %v, want fallback", d.Degraded)
	}
	if d.Served < in.PremiumLambda*(1-1e-9) {
		t.Errorf("fallback served %v below premium %v", d.Served, in.PremiumLambda)
	}
	checkHeteroSafety(t, r, in, d)
}

func TestHeteroTariffHourPassesAudit(t *testing.T) {
	r := NewResilient(heteroSystem(t), ResilientOptions{})
	lam := 0.6 * r.sys.MaxThroughput()
	in := serveAll(lam)
	in.PremiumLambda = 0.5 * lam
	in.DemandChargeUSDPerMW = 1500
	in.PeakMW = []float64{5, 5, 5}
	bat := BatterySpec{CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15, Efficiency: 0.9, SoCMWh: 20, ValueUSDPerMWh: 30}
	in.Batteries = []BatterySpec{bat, bat, bat}
	d := r.Decide(in)
	if d.Degraded != DegradeNone {
		t.Fatalf("rung %v, want the exact MILP's answer", d.Degraded)
	}
	if d.DemandChargeUSD <= 0 {
		t.Errorf("demand charge %v: no site rose above its peak", d.DemandChargeUSD)
	}
	checkHeteroSafety(t, r, in, d)
}

// TestHeteroPlanKeepsRoundingSlack: a multi-class site gets the ceiling a
// one-class site gets, so near fleet capacity every site's planned IT draw
// stays at or below its cap less the rounding slack, and the realized hour
// violates no cap and pays no penalty.
func TestHeteroPlanKeepsRoundingSlack(t *testing.T) {
	s := heteroSystem(t)
	for _, frac := range []float64{0.9, 0.95} {
		lam := frac * s.MaxThroughput()
		a, err := s.MinimizeCost(serveAll(lam), lam, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, site := range a.Sites {
			dc := s.Sites[i].DC
			if ceil := dc.PowerCapMW - dc.RoundingSlackMW(); site.PowerMW > ceil+1e-9 {
				t.Errorf("%.0f%%: %s planned at %.6f MW, above its %.6f MW cap less slack", 100*frac, dc.Name, site.PowerMW, ceil)
			}
		}
		r, err := s.Realize(a.Lambdas(), demand3())
		if err != nil {
			t.Fatal(err)
		}
		if r.CapViolations != 0 || r.PenaltyUSD != 0 {
			t.Errorf("%.0f%%: realized %d cap violations, $%.2f penalty", 100*frac, r.CapViolations, r.PenaltyUSD)
		}
	}
}
