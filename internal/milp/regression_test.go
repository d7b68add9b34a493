package milp

import (
	"math"
	"testing"
	"time"

	"billcap/internal/lp"
)

// TestRootIterLimitReportsInfiniteGap pins the gap-reporting contract of the
// root pivot-limit path: with no incumbent there is nothing to bound, so Gap
// must be +Inf. The pre-fix code returned a bare Solution whose zero-value
// Gap == 0 — callers reading "gap 0" concluded the answer was proven optimal
// when the solver had in fact proven nothing at all.
func TestRootIterLimitReportsInfiniteGap(t *testing.T) {
	// max x + y over x ≤ 1, y ≤ 1 needs two pivots; cap at one so the root
	// relaxation exhausts its budget.
	p := NewProblem()
	x := p.AddIntVar("x", 1)
	y := p.AddIntVar("y", 1)
	p.SetMaximize(true)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 1)
	p.AddConstraint([]lp.Term{{Var: y, Coef: 1}}, lp.LE, 1)

	sol := p.SolveWithOptions(Options{MaxLPPivots: 1})
	if sol.Status != Limit {
		t.Fatalf("status = %v, want node-limit from root pivot cap", sol.Status)
	}
	if sol.X != nil {
		t.Errorf("X = %v, want no incumbent", sol.X)
	}
	if !math.IsInf(sol.Gap, 1) {
		t.Errorf("gap = %v with no incumbent, want +Inf — a zero gap reads as proven optimal", sol.Gap)
	}
}

// TestDiveRespectsDeadline pins the overshoot bound of the deadline path's
// incumbent-manufacturing dive. Pre-fix, the dive performed up to
// 2·NumIntegerVars warm LP re-solves with no deadline check of its own, so a
// near-zero deadline on a large instance overshot by the whole dive —
// hundreds of re-solves on steadily growing tableaus, multiple seconds.
// Post-fix the dive re-checks the clock every level and stops inside its
// bounded grace budget.
func TestDiveRespectsDeadline(t *testing.T) {
	k := NewHardKnapsack(400, 0)
	start := time.Now()
	sol := k.SolveWithOptions(Options{Deadline: time.Nanosecond})
	elapsed := time.Since(start)
	if sol.Status != TimeLimit {
		t.Fatalf("status = %v, want time-limit", sol.Status)
	}
	// Budget: one root LP solve (the cooperative floor), the dive's clamped
	// grace (≤ 250ms), and scheduler slack. The pre-fix full dive runs
	// ~2·300 re-solves and blows far past this.
	const bound = 2 * time.Second
	if elapsed > bound {
		t.Fatalf("near-zero deadline took %v, want < %v — the dive is not deadline-checked", elapsed, bound)
	}
	// Whatever the dive salvaged must be honest: either a feasible integral
	// incumbent with a finite gap, or no incumbent and an infinite gap.
	if sol.X != nil {
		if !k.CheckSolution(sol.X, 1e-6) {
			t.Fatalf("salvaged incumbent is infeasible: %v", sol.X)
		}
		if math.IsInf(sol.Gap, 1) || sol.Gap < 0 {
			t.Errorf("incumbent present but gap = %v", sol.Gap)
		}
	} else if !math.IsInf(sol.Gap, 1) {
		t.Errorf("no incumbent but gap = %v, want +Inf", sol.Gap)
	}
}

// TestDeadlineStillManufacturesIncumbent pins that the bounded dive keeps the
// original guarantee on the paper-scale regime: the grace budget is enough to
// manufacture a feasible incumbent for instances the controller actually
// solves (the flag-day failure would be a deadline answer with no plan).
func TestDeadlineStillManufacturesIncumbent(t *testing.T) {
	k := NewHardKnapsack(40, 0)
	sol := k.SolveWithOptions(Options{Deadline: time.Millisecond})
	if sol.Status != TimeLimit {
		t.Skipf("instance solved to %v before the deadline fired", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("deadline answer carries no incumbent")
	}
	if !k.CheckSolution(sol.X, 1e-6) {
		t.Fatalf("manufactured incumbent infeasible: %v", sol.X)
	}
}

// TestBigMIncumbentRepair pins the incumbent-repair contract: a binary within
// intTol of 0 still licenses real continuous load through its big-M capacity
// row (x ≤ M·y with y ≈ 1e-5 admits x = M·1e-5), and naive rounding then
// reports an infeasible incumbent whose "objective" beats the true optimum.
// The model mirrors the capper's premium-only hour: two sites, the cheap one
// capacity-limited so the relaxation parks its binary at x/M — far inside the
// integrality tolerance but not at zero.
func TestBigMIncumbentRepair(t *testing.T) {
	p := NewProblem()
	x1 := p.AddVar("x1", 1)
	x2 := p.AddVar("x2", 0.5)
	y2 := p.AddBinVar("y2", 5)
	p.AddConstraint([]lp.Term{{Var: x1, Coef: 1}}, lp.LE, 1000)
	p.AddConstraint([]lp.Term{{Var: x2, Coef: 1}}, lp.LE, 0.01)
	p.AddConstraint([]lp.Term{{Var: x2, Coef: 1}, {Var: y2, Coef: -1000}}, lp.LE, 0)
	p.AddConstraint([]lp.Term{{Var: x1, Coef: 1}, {Var: x2, Coef: 1}}, lp.EQ, 1000)
	// Relaxation: x2 = 0.01, y2 = 1e-5 (integral within the default 1e-4),
	// objective ≈ 999.995. Snapping y2 to 0 strands x2 = 0.01 against the
	// big-M row; the only feasible completions are (1000, 0, 0) at 1000 and
	// (999.99, 0.01, 1) at 1004.995, so the answer must be exactly 1000.
	sol := p.Solve()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if viol := p.CheckFeasible(sol.X, 1e-6); len(viol) != 0 {
		t.Fatalf("incumbent infeasible: %v (x=%v)", viol, sol.X)
	}
	if math.Abs(sol.Objective-1000) > 1e-6 {
		t.Fatalf("objective = %v, want 1000", sol.Objective)
	}
	if sol.X[y2] != 0 || sol.X[x2] != 0 || math.Abs(sol.X[x1]-1000) > 1e-9 {
		t.Fatalf("x = (%v, %v, %v), want (1000, 0, 0)", sol.X[x1], sol.X[x2], sol.X[y2])
	}
}
