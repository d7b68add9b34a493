package decomp

import (
	"math"
	"testing"
	"time"

	"billcap/internal/milp"
)

func twoSites() []Site {
	return []Site{
		{Name: "a", CanOff: true, Segments: []Segment{
			{Seg: 0, LoadLo: 0, LoadHi: 100, Cost1: 2, Power1: 1, Rate: 2},
			{Seg: 1, LoadLo: 100, LoadHi: 200, Cost1: 5, Power1: 1, Rate: 5},
		}},
		{Name: "b", CanOff: true, Segments: []Segment{
			{Seg: 0, LoadLo: 0, LoadHi: 150, Cost1: 3, Power1: 1, Rate: 3},
		}},
	}
}

func TestValidate(t *testing.T) {
	bad := []Instance{
		{Sense: MinCostServeAll, TargetLoad: math.Inf(1), Sites: twoSites()},
		{TargetLoad: -1, Sites: twoSites()},
		{TargetLoad: 10, BudgetUSD: -2, Sites: twoSites()},
		{TargetLoad: 10, Sites: nil},
		{TargetLoad: 10, Sites: []Site{{Name: "x", CanOff: false}}},
		{TargetLoad: 10, Sites: []Site{{Name: "x", CanOff: true,
			Segments: []Segment{{LoadLo: 5, LoadHi: 2}}}}},
		{TargetLoad: 10, Sites: []Site{{Name: "x", CanOff: true,
			Segments: []Segment{{LoadLo: 5, LoadHi: 9}, {LoadLo: 1, LoadHi: 3}}}}},
	}
	for i, inst := range bad {
		if _, err := Solve(inst, Options{}); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestMinCostServesExactly(t *testing.T) {
	inst := Instance{
		Sites: twoSites(), Sense: MinCostServeAll,
		TargetLoad: 220, BudgetUSD: math.Inf(1),
	}
	res, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Infeasible {
		t.Fatal("feasible target declared infeasible")
	}
	if math.Abs(res.Load-220) > 1e-6*220 {
		t.Fatalf("served %v, want 220", res.Load)
	}
	// Cheapest split: a at 100 ($2/u), b at 120 ($3/u) = 200+360 = 560.
	if math.Abs(res.CostUSD-560) > 1e-6*560 {
		t.Errorf("cost %v, want 560", res.CostUSD)
	}
	if res.DualBound > res.Objective+1e-9 {
		t.Errorf("lower bound %v above primal %v", res.DualBound, res.Objective)
	}
}

func TestMinCostOverCapacityIsInfeasible(t *testing.T) {
	inst := Instance{
		Sites: twoSites(), Sense: MinCostServeAll,
		TargetLoad: 351, BudgetUSD: math.Inf(1), // capacity is 200+150
	}
	res, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestMandatoryMinimumOverTargetIsInfeasible(t *testing.T) {
	sites := twoSites()
	sites[0].CanOff = false
	sites[0].Segments[0].LoadLo = 50
	inst := Instance{
		Sites: sites, Sense: MinCostServeAll,
		TargetLoad: 10, BudgetUSD: math.Inf(1),
	}
	res, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestMaxLoadRespectsBudgetAndBalance(t *testing.T) {
	inst := Instance{
		Sites: twoSites(), Sense: MaxLoadWithinBudget,
		TargetLoad: 300, BudgetUSD: 500, Epsilon: 1e-4,
	}
	res, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Load > 300+1e-6 {
		t.Errorf("served %v over the balance bound 300", res.Load)
	}
	if res.CostUSD > 500+1e-6*500 {
		t.Errorf("cost %v over budget 500", res.CostUSD)
	}
	// $500 buys a:100@2 + b:100@3 = 200 load for 500; check we got there.
	if res.Load < 200-1e-6 {
		t.Errorf("served %v, want 200", res.Load)
	}
	if res.DualBound < res.Objective-1e-9 {
		t.Errorf("upper bound %v below primal %v", res.DualBound, res.Objective)
	}
}

func TestMaxLoadUncoupledIsExact(t *testing.T) {
	// No balance row, no budget row: the instance is separable, so the dual
	// bound and the primal must coincide immediately.
	inst := Instance{
		Sites: twoSites(), Sense: MaxLoadWithinBudget,
		TargetLoad: math.Inf(1), BudgetUSD: math.Inf(1), Epsilon: 1e-4,
	}
	res, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged {
		t.Fatalf("status %v, want converged", res.Status)
	}
	want := 350.0 // both sites at their top segments
	if math.Abs(res.Load-want) > 1e-6*want {
		t.Errorf("served %v, want %v", res.Load, want)
	}
	if res.Gap > 1e-9 {
		t.Errorf("gap %v on a separable instance", res.Gap)
	}
}

func TestBadlyScaledUnitsStillCloseTheGap(t *testing.T) {
	// Core instances carry loads in req/h (~1e12) against costs in USD
	// (~1e3). Before Solve normalized units, ‖g‖² was dominated by the
	// balance residual and the budget multiplier ν could move only ~1e-12
	// per iteration — the dual bound stayed near fleet capacity and the
	// reported gap was ~50% on a near-optimal primal.
	sites := []Site{
		{Name: "a", CanOff: true, Segments: []Segment{
			{Seg: 0, LoadLo: 0, LoadHi: 6e11, Cost1: 2e-9, Power1: 1e-10, Rate: 20},
			{Seg: 1, LoadLo: 6e11, LoadHi: 1.2e12, Cost1: 5e-9, Power1: 1e-10, Rate: 50},
		}},
		{Name: "b", CanOff: true, Segments: []Segment{
			{Seg: 0, LoadLo: 0, LoadHi: 9e11, Cost1: 3e-9, Power1: 1e-10, Rate: 30},
		}},
	}
	inst := Instance{
		Sites: sites, Sense: MaxLoadWithinBudget,
		TargetLoad: 1.8e12, BudgetUSD: 2000, Epsilon: 1e-4,
	}
	res, err := Solve(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Infeasible {
		t.Fatal("feasible instance declared infeasible")
	}
	if res.CostUSD > 2000*(1+1e-6) {
		t.Errorf("cost %v over budget 2000", res.CostUSD)
	}
	// $2000 buys a:6e11@2e-9 ($1200) + b:~2.67e11@3e-9 ($800) ≈ 8.67e11.
	if res.Load < 8.6e11 {
		t.Errorf("served %v, want ≈8.67e11", res.Load)
	}
	if res.Gap > 0.02 {
		t.Errorf("gap %.2f%% on a badly scaled instance, want < 2%%", 100*res.Gap)
	}
}

func TestDeadlineAndCancelStopTheLoop(t *testing.T) {
	fi := milp.NewPaperFleet(30, 3)
	res, err := Solve(FromFleet(fi), Options{Deadline: time.Nanosecond, GapTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Errorf("expired deadline still ran %d iterations", res.Iterations)
	}
	done := make(chan struct{})
	close(done)
	res, err = Solve(FromFleet(fi), Options{Cancel: done, GapTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Errorf("closed cancel channel still ran %d iterations", res.Iterations)
	}
}

// TestCancelStopsPrimalRecovery pins the recovery path's deadline contract:
// the bootstrap primal (which runs before the first loop-top expiry check)
// must not polish after Cancel has fired. Before recovery honored Cancel,
// this test failed with Polishes >= 1.
func TestCancelStopsPrimalRecovery(t *testing.T) {
	fi := milp.NewPaperFleet(30, 3)
	done := make(chan struct{})
	close(done)
	res, err := Solve(FromFleet(fi), Options{Cancel: done, GapTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Polishes != 0 {
		t.Errorf("cancelled solve still ran %d polish LPs", res.Polishes)
	}
	if res.LPPivots != 0 {
		t.Errorf("cancelled solve still ran %d LP pivots", res.LPPivots)
	}
}

func TestFleetScaleCompletes(t *testing.T) {
	// The N=500 hour decision — 2500 binaries in MILP terms — must come back
	// in interactive time with a sub-1% proven gap.
	fi := milp.NewPaperFleet(500, 0)
	start := time.Now()
	res, err := Solve(FromFleet(fi), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Infeasible {
		t.Fatal("fleet instance declared infeasible")
	}
	if res.Gap > 0.01 {
		t.Errorf("gap %.4f%% above 1%%", 100*res.Gap)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("N=500 solve took %v", elapsed)
	}
}
