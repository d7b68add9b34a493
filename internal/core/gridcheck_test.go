package core

import (
	"math"
	"strings"
	"testing"

	"billcap/internal/dcmodel"
	"billcap/internal/lpparse"
	"billcap/internal/pricing"
)

// predictedCost evaluates the optimizer's own model (affine power, step
// price, margin-adjusted boundaries) at an explicit two-site allocation, so
// the MILP optimum can be checked against an exhaustive grid search.
func predictedCost(s *System, lambdas, demand []float64) (float64, bool) {
	total := 0.0
	for i, lam := range lambdas {
		if lam < 0 {
			return 0, false
		}
		m := s.models[i]
		if lam > m.maxLambda*(1+1e-12) {
			return 0, false
		}
		if lam == 0 {
			continue
		}
		p := m.plans[0].PowerMW(lam)
		if p > s.Sites[i].DC.PowerCapMW {
			return 0, false
		}
		load := demand[i] + p
		fn := s.Sites[i].Policy.Fn
		seg := fn.Segment(load)
		// The optimizer refuses to park power within the rounding slack of
		// a boundary; mirror that by charging the next segment's rate there.
		if _, hi := fn.SegmentBounds(seg); !math.IsInf(hi, 1) &&
			load > hi-s.Sites[i].DC.RoundingSlackMW() {
			seg++
		}
		total += fn.Rates()[seg] * p
	}
	return total, true
}

func TestMinimizeCostMatchesGridSearch(t *testing.T) {
	// Two paper sites (B with its 200/300 MW steps, D with the trap policy);
	// the MILP optimum must match a fine grid search over the λ split.
	dcs := dcmodel.PaperSites()[:2:2]
	dcs[1] = dcmodel.PaperSites()[2]
	pols := []pricing.Policy{
		pricing.PaperPolicies(pricing.Policy1)[0],
		pricing.PaperPolicies(pricing.Policy1)[2],
	}
	s, err := NewSystem(dcs, pols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	demand := []float64{185, 128} // both regions near a step boundary

	for _, frac := range []float64{0.15, 0.4, 0.6, 0.8, 0.95} {
		lam := frac * s.MaxThroughput()
		in := HourInput{TotalLambda: lam, DemandMW: demand, BudgetUSD: math.Inf(1)}
		d, err := s.MinimizeCost(in, lam, &SolverStats{})
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}

		const steps = 4000
		best := math.Inf(1)
		for k := 0; k <= steps; k++ {
			l0 := lam * float64(k) / steps
			c, ok := predictedCost(s, []float64{l0, lam - l0}, demand)
			if ok && c < best {
				best = c
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("frac %v: grid found no feasible split", frac)
		}
		// The MILP may not beat the grid by more than grid resolution, nor
		// lose to it by more than a small tolerance.
		tol := 0.002*best + 1e-6
		if d.PredictedCostUSD > best+tol {
			t.Errorf("frac %v: MILP %v above grid optimum %v", frac, d.PredictedCostUSD, best)
		}
		if d.PredictedCostUSD < best-tol-0.01*best {
			t.Errorf("frac %v: MILP %v implausibly below grid optimum %v (model mismatch)",
				frac, d.PredictedCostUSD, best)
		}
	}
}

func TestDecideHourZeroBudget(t *testing.T) {
	s := paperSystem(t, Options{})
	in := HourInput{TotalLambda: 1e12, PremiumLambda: 0, DemandMW: demand3(), BudgetUSD: 0}
	d, err := s.DecideHour(in)
	if err != nil {
		t.Fatal(err)
	}
	// No premium traffic: a zero budget admits nothing.
	if d.Step != StepBudgetCapped || d.Served > 1e-3 {
		t.Errorf("step %v served %v, want budget-capped 0", d.Step, d.Served)
	}
}

func TestDecideHourZeroBudgetWithPremium(t *testing.T) {
	s := paperSystem(t, Options{})
	in := HourInput{TotalLambda: 1e12, PremiumLambda: 8e11, DemandMW: demand3(), BudgetUSD: 0}
	d, err := s.DecideHour(in)
	if err != nil {
		t.Fatal(err)
	}
	if d.Step != StepPremiumOnly {
		t.Errorf("step = %v, want premium-only", d.Step)
	}
	if math.Abs(d.ServedPremium-8e11) > 1 {
		t.Errorf("premium served %v", d.ServedPremium)
	}
}

func TestSingleSiteSystem(t *testing.T) {
	dcs := dcmodel.PaperSites()[:1]
	pols := pricing.PaperPolicies(pricing.Policy1)[:1]
	s, err := NewSystem(dcs, pols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lam := 0.5 * s.MaxThroughput()
	in := HourInput{TotalLambda: lam, PremiumLambda: lam / 2, DemandMW: []float64{170}, BudgetUSD: math.Inf(1)}
	d, err := s.DecideHour(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Served-lam) > 1e-6*lam {
		t.Errorf("served %v of %v", d.Served, lam)
	}
}

func TestDemandExactlyAtThreshold(t *testing.T) {
	// Background demand parked exactly on a price breakpoint must not break
	// the encoding (the region starts in the upper segment).
	s := paperSystem(t, Options{})
	in := HourInput{TotalLambda: 1e12, PremiumLambda: 0, DemandMW: []float64{200, 220, 140}, BudgetUSD: math.Inf(1)}
	d, err := s.MinimizeCost(in, in.TotalLambda, &SolverStats{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Realize(d.Lambdas(), in.DemandMW)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(r.CostUSD-d.PredictedCostUSD) / d.PredictedCostUSD; rel > 0.02 {
		t.Errorf("realized %v vs predicted %v", r.CostUSD, d.PredictedCostUSD)
	}
}

func TestHugeDemandOnlyTopSegmentReachable(t *testing.T) {
	// Region demand beyond every breakpoint: only the last price level
	// exists; the solve must still work.
	s := paperSystem(t, Options{})
	in := HourInput{TotalLambda: 8e11, PremiumLambda: 0, DemandMW: []float64{900, 900, 900}, BudgetUSD: math.Inf(1)}
	d, err := s.MinimizeCost(in, in.TotalLambda, &SolverStats{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range d.Sites {
		if a.On && a.PriceUSDPerMWh != s.Sites[i].Policy.Fn.Max() {
			t.Errorf("site %d price %v, want the top rate %v", i, a.PriceUSDPerMWh, s.Sites[i].Policy.Fn.Max())
		}
	}
}

func TestWriteHourModelRoundTrip(t *testing.T) {
	s := paperSystem(t, Options{})
	in := HourInput{TotalLambda: 1e12, PremiumLambda: 0, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	var buf strings.Builder
	if err := s.WriteHourModel(&buf, in, in.TotalLambda); err != nil {
		t.Fatal(err)
	}
	parsed, err := lpparse.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("dumped model does not parse: %v", err)
	}
	ext := parsed.Problem.Solve()
	d, err := s.MinimizeCost(in, in.TotalLambda, &SolverStats{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ext.Objective-d.PredictedCostUSD) > 1e-5*(1+d.PredictedCostUSD) {
		t.Errorf("external solve %v vs internal %v", ext.Objective, d.PredictedCostUSD)
	}
	if err := s.WriteHourModel(&buf, in, -1); err == nil {
		t.Error("negative workload accepted")
	}
}
