package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"billcap/internal/lp"
)

func TestPresolveFixesForcedBinaries(t *testing.T) {
	// z0 is killed by a budget-style row (5·z0 ≤ 2 → z0 ≤ 0.4 → 0); z1 is
	// forced on by a coverage row (z1 ≥ 0.6 → 1); z2 stays free.
	p := NewProblem()
	p.SetMaximize(true)
	z0 := p.AddBinVar("z0", 10)
	z1 := p.AddBinVar("z1", 1)
	z2 := p.AddBinVar("z2", 1)
	p.AddConstraint([]lp.Term{{Var: z0, Coef: 5}}, lp.LE, 2)
	p.AddConstraint([]lp.Term{{Var: z1, Coef: 1}}, lp.GE, 0.6)

	pr := p.Presolve()
	if pr.Infeasible {
		t.Fatal("feasible problem reported infeasible")
	}
	if v, ok := pr.FixedValue(z0); !ok || v != 0 {
		t.Errorf("z0: fixed=%v value=%v, want fixed at 0", ok, v)
	}
	if v, ok := pr.FixedValue(z1); !ok || v != 1 {
		t.Errorf("z1: fixed=%v value=%v, want fixed at 1", ok, v)
	}
	if _, ok := pr.FixedValue(z2); ok {
		t.Error("z2 fixed despite being free")
	}
	if pr.Fixed != 2 {
		t.Errorf("Fixed = %d, want 2", pr.Fixed)
	}

	cold := p.SolveWithOptions(Options{})
	warm := p.SolveWithOptions(Options{Presolve: true})
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("statuses: cold %v warm %v", cold.Status, warm.Status)
	}
	if !near(warm.Objective, cold.Objective, 1e-9) {
		t.Errorf("presolved objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if warm.PresolveFixed != 2 {
		t.Errorf("Solution.PresolveFixed = %d, want 2", warm.PresolveFixed)
	}
	if cold.PresolveFixed != 0 {
		t.Errorf("cold Solution.PresolveFixed = %d, want 0", cold.PresolveFixed)
	}
}

func TestPresolvePropagatesThroughChains(t *testing.T) {
	// Segment-encoding shape: p ≤ 100·z (hi row), p ≥ 80·z (lo row), and a
	// budget row 1·p ≤ 50. Propagation must chain p ≤ 50 → z ≤ 50/80 → z = 0.
	p := NewProblem()
	pw := p.AddVar("p", 1)
	z := p.AddBinVar("z", 0)
	p.AddConstraint([]lp.Term{{Var: pw, Coef: 1}, {Var: z, Coef: -100}}, lp.LE, 0)
	p.AddConstraint([]lp.Term{{Var: pw, Coef: 1}, {Var: z, Coef: -80}}, lp.GE, 0)
	p.AddConstraint([]lp.Term{{Var: pw, Coef: 1}}, lp.LE, 50)

	pr := p.Presolve()
	if v, ok := pr.FixedValue(z); !ok || v != 0 {
		t.Errorf("z: fixed=%v value=%v, want fixed at 0 via the budget chain", ok, v)
	}
}

func TestPresolveDetectsInfeasible(t *testing.T) {
	// Two binaries cannot sum to 3.
	p := NewProblem()
	x := p.AddBinVar("x", 1)
	y := p.AddBinVar("y", 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GE, 3)

	if pr := p.Presolve(); !pr.Infeasible {
		t.Error("integer-infeasible system not detected")
	}
	if s := p.SolveWithOptions(Options{Presolve: true}); s.Status != Infeasible {
		t.Errorf("solve with presolve: %v, want infeasible", s.Status)
	}
	if s := p.SolveWithOptions(Options{}); s.Status != Infeasible {
		t.Errorf("cold solve: %v, want infeasible", s.Status)
	}
}

func TestStartXSeedsIncumbent(t *testing.T) {
	k := NewHardKnapsack(20, 3)
	cold := k.SolveWithOptions(Options{})
	if cold.Status != Optimal {
		t.Fatalf("cold: %v", cold.Status)
	}
	if cold.WarmStarted {
		t.Error("cold solve reports WarmStarted")
	}
	warm := k.SolveWithOptions(Options{StartX: cold.X, StartBasis: cold.RootBasis})
	if warm.Status != Optimal {
		t.Fatalf("warm: %v", warm.Status)
	}
	if !warm.WarmStarted {
		t.Error("accepted seed not reported as WarmStarted")
	}
	if !near(warm.Objective, cold.Objective, 1e-9*(1+math.Abs(cold.Objective))) {
		t.Errorf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if warm.Nodes > cold.Nodes {
		t.Errorf("warm start explored %d nodes, cold %d — seeding must not grow the tree", warm.Nodes, cold.Nodes)
	}
}

func TestStartXRejectsBadSeeds(t *testing.T) {
	k := NewHardKnapsack(12, 5)
	cold := k.SolveWithOptions(Options{})
	if cold.Status != Optimal {
		t.Fatalf("cold: %v", cold.Status)
	}
	bad := map[string][]float64{
		"wrong length": {1, 0},
		"fractional":   make([]float64, k.NumVars()),
		"NaN":          make([]float64, k.NumVars()),
		"infeasible":   make([]float64, k.NumVars()),
	}
	bad["fractional"][0] = 0.5
	bad["NaN"][0] = math.NaN()
	for j := range bad["infeasible"] {
		bad["infeasible"][j] = 1 // all items packed: violates the knapsack rows
	}
	for name, seed := range bad {
		s := k.SolveWithOptions(Options{StartX: seed})
		if s.WarmStarted {
			t.Errorf("%s seed accepted", name)
		}
		if s.Status != Optimal || !near(s.Objective, cold.Objective, 1e-9*(1+math.Abs(cold.Objective))) {
			t.Errorf("%s seed corrupted the solve: %v obj %v, want %v", name, s.Status, s.Objective, cold.Objective)
		}
	}
}

// TestWarmPresolveMatchesColdProperty is the solver-level equivalence
// property behind the cross-hour cache: presolve plus a previous optimum fed
// back as StartX/StartBasis must return the same objective as a cold solve,
// across randomized instances and a perturbed "next hour" of each.
func TestWarmPresolveMatchesColdProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 8 + r.Intn(8)
		nc := r.Intn(4)
		p, _ := randomBinaryProblem(r, nb, nc)

		cold := p.SolveWithOptions(Options{})
		warm := p.SolveWithOptions(Options{Presolve: true, StartX: cold.X, StartBasis: cold.RootBasis})
		if warm.Status != cold.Status {
			t.Logf("seed %d: warm status %v vs cold %v", seed, warm.Status, cold.Status)
			return false
		}
		if cold.Status != Optimal {
			return true
		}
		tol := 1e-5 * (1 + math.Abs(cold.Objective))
		if !near(warm.Objective, cold.Objective, tol) {
			t.Logf("seed %d: warm objective %v vs cold %v", seed, warm.Objective, cold.Objective)
			return false
		}
		if v := p.CheckFeasible(warm.X, 1e-6); len(v) != 0 {
			t.Logf("seed %d: warm incumbent infeasible: %v", seed, v)
			return false
		}

		// "Next hour": clone and tighten the first knapsack-style row a bit,
		// then seed with this hour's optimum — the seed may now be infeasible
		// and must be screened out, never crash or corrupt the solve.
		q := p.Clone()
		if q.NumConstraints() > nb { // rows beyond the per-binary ≤1 bounds exist
			c := q.Problem.Constraint(q.NumConstraints() - 1)
			q.Problem.SetRHS(q.NumConstraints()-1, c.RHS*0.9)
		}
		qc := q.SolveWithOptions(Options{})
		qw := q.SolveWithOptions(Options{Presolve: true, StartX: cold.X, StartBasis: cold.RootBasis})
		if qw.Status != qc.Status {
			t.Logf("seed %d: next-hour warm status %v vs cold %v", seed, qw.Status, qc.Status)
			return false
		}
		if qc.Status == Optimal {
			tol := 1e-5 * (1 + math.Abs(qc.Objective))
			if !near(qw.Objective, qc.Objective, tol) {
				t.Logf("seed %d: next-hour warm objective %v vs cold %v", seed, qw.Objective, qc.Objective)
				return false
			}
			if v := q.CheckFeasible(qw.X, 1e-6); len(v) != 0 {
				t.Logf("seed %d: next-hour warm incumbent infeasible: %v", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
