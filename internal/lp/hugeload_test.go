package lp_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/lp"
	"billcap/internal/lpparse"
	"billcap/internal/pricing"
)

// TestHugeLoadRootTerminates solves the root relaxation of paper hours whose
// load exceeds the fleet by seven or more orders of magnitude. Every
// improving column of such a model pivots on an element below the weak-pivot
// threshold; the primal simplex used to exclude them, refresh the
// factorization and price the same columns again forever, without counting
// a pivot. A refresh that follows no pivot must now end the solve.
func TestHugeLoadRootTerminates(t *testing.T) {
	sys, err := core.NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range []float64{1e19, 1e22} {
		in := core.HourInput{TotalLambda: lam, DemandMW: []float64{170, 190, 150}, BudgetUSD: math.Inf(1)}
		var buf bytes.Buffer
		if err := sys.WriteHourModel(&buf, in, lam); err != nil {
			t.Fatal(err)
		}
		parsed, err := lpparse.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan lp.Solution, 1)
		go func() { done <- parsed.Problem.Problem.Solve() }()
		select {
		case sol := <-done:
			if sol.Status == lp.Optimal {
				t.Errorf("λ=%g: root relaxation optimal at %d× the fleet's capacity", lam, int(lam/sys.MaxThroughput()))
			}
			t.Logf("λ=%g: %v after %d pivots", lam, sol.Status, sol.Pivots)
		case <-time.After(10 * time.Second):
			t.Fatalf("λ=%g: root relaxation still running after 10 s", lam)
		}
	}
}
