package core

import (
	"math"
	"strings"
	"testing"

	"billcap/internal/dcmodel"
	"billcap/internal/obs"
	"billcap/internal/pricing"
)

func TestDecideHourMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sys, err := NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMetrics(NewMetrics(reg))

	in := HourInput{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		BudgetUSD:     math.Inf(1),
	}
	dec, err := sys.DecideHour(in)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Step != StepCostMin {
		t.Fatalf("step = %v", dec.Step)
	}
	if dec.Solver.Incumbents < 1 {
		t.Errorf("incumbents = %d, want ≥ 1", dec.Solver.Incumbents)
	}
	if dec.Solver.WallTime <= 0 {
		t.Errorf("wall time = %v, want > 0", dec.Solver.WallTime)
	}

	// A $1 budget forces the premium-only branch.
	in.BudgetUSD = 1
	if _, err := sys.DecideHour(in); err != nil {
		t.Fatal(err)
	}
	// An invalid input counts as an error.
	bad := in
	bad.TotalLambda = -1
	if _, err := sys.DecideHour(bad); err == nil {
		t.Fatal("bad input accepted")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"billcap_decide_total 3",
		"billcap_decide_errors_total 1",
		`billcap_decide_step_total{step="cost-min"} 1`,
		`billcap_decide_step_total{step="premium-only"} 1`,
		`billcap_decide_step_total{step="budget-capped"} 0`, // pre-registered at zero
		"billcap_decide_budget_binding 1",
		"billcap_decide_sites_on",
		// The $1 hour's root bound proved it over budget.
		"billcap_decide_budget_cutoffs_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if reg.Counter("billcap_milp_nodes_total", "").Value() <= 0 {
		t.Error("no MILP nodes recorded")
	}
	if reg.Counter("billcap_milp_pivots_total", "").Value() <= 0 {
		t.Error("no simplex pivots recorded")
	}
	// The sparse LP core reports its basis work; the counters
	// must at least be exposed, and eta updates accrue on any nontrivial hour.
	if !strings.Contains(out, "billcap_lp_refactorizations_total") ||
		!strings.Contains(out, "billcap_lp_basis_updates_total") {
		t.Error("LP factorization counters not exposed")
	}
	if reg.Counter("billcap_lp_basis_updates_total", "").Value() <= 0 {
		t.Error("no LP basis updates recorded on the sparse core")
	}
	if reg.Histogram("billcap_decide_seconds", "", obs.DefBuckets).Count() != 3 {
		t.Error("latency histogram did not see every call")
	}
}
