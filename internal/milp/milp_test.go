package milp

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"billcap/internal/lp"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c + 4d, weights 5,6,4,2 ≤ capacity 10.
	// Best subset: b+c = 20 (weight 10); a+c+d = 21 (weight 11, too big);
	// a+d = 14, b+d = 17, a+c = 17 (weight 9) → add d? 5+4+2=11 no.
	// Check candidates: {b,c}=20 w10 ok; {a,b}=23 w11 no; so 20.
	p := NewProblem()
	p.SetMaximize(true)
	a := p.AddBinVar("a", 10)
	b := p.AddBinVar("b", 13)
	c := p.AddBinVar("c", 7)
	d := p.AddBinVar("d", 4)
	p.AddConstraint([]lp.Term{{Var: a, Coef: 5}, {Var: b, Coef: 6}, {Var: c, Coef: 4}, {Var: d, Coef: 2}}, lp.LE, 10)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, 20, 1e-7) {
		t.Errorf("objective = %v, want 20", s.Objective)
	}
	if !near(s.X[b], 1, 1e-9) || !near(s.X[c], 1, 1e-9) || !near(s.X[a], 0, 1e-9) || !near(s.X[d], 0, 1e-9) {
		t.Errorf("x = %v, want b=c=1 only", s.X)
	}
}

func TestGeneralInteger(t *testing.T) {
	// min 3x + 4y, x,y integer ≥ 0, 2x + y ≥ 5, x + 3y ≥ 7.
	// LP relaxation is fractional; integer optimum: enumerate small points:
	// (1,3): 2+3=5 ok, 1+9=10 ok → 15. (2,2): 6≥5, 8≥7 → 14. (3,2): 17.
	// (2,1): 5 ok, 5 < 7 no. (4,1): 9,7 → 16. So 14 at (2,2).
	p := NewProblem()
	x := p.AddIntVar("x", 3)
	y := p.AddIntVar("y", 4)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.GE, 5)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 3}}, lp.GE, 7)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, 14, 1e-7) {
		t.Errorf("objective = %v at %v, want 14 at (2,2)", s.Objective, s.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// Fixed-charge: min 10y + 2x, x ≤ 8y (y binary), x ≥ 3.
	// Must open y=1: cost 10 + 6 = 16.
	p := NewProblem()
	y := p.AddBinVar("y", 10)
	x := p.AddVar("x", 2)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -8}}, lp.LE, 0)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 3)
	s := p.Solve()
	if s.Status != Optimal || !near(s.Objective, 16, 1e-7) {
		t.Fatalf("got %v obj=%v, want optimal 16", s.Status, s.Objective)
	}
	if !near(s.X[y], 1, 1e-9) {
		t.Errorf("y = %v, want exactly 1 (rounded)", s.X[y])
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 2x = 3 has no integer solution.
	p := NewProblem()
	x := p.AddIntVar("x", 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.EQ, 3)
	if s := p.Solve(); s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleLP(t *testing.T) {
	p := NewProblem()
	x := p.AddIntVar("x", 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 5)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 3)
	if s := p.Solve(); s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddIntVar("x", -1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 0)
	if s := p.Solve(); s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNodeLimit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p, _ := randomBinaryProblem(r, 12, 6)
	s := p.SolveWithOptions(Options{MaxNodes: 2})
	if s.Status != Limit && s.Status != Optimal && s.Status != Infeasible {
		t.Fatalf("status = %v under tight node limit", s.Status)
	}
	if s.Status == Limit && s.X != nil && s.Gap < 0 {
		t.Errorf("negative gap %v", s.Gap)
	}
}

func TestPureLPPassThrough(t *testing.T) {
	// No integer variables: must match the plain LP answer in one node.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.GE, 4)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 3}, {Var: y, Coef: 1}}, lp.GE, 6)
	s := p.Solve()
	if s.Status != Optimal || !near(s.Objective, 2.8, 1e-8) {
		t.Fatalf("got %v obj=%v, want optimal 2.8", s.Status, s.Objective)
	}
	if s.Nodes != 1 {
		t.Errorf("nodes = %d, want 1 for a pure LP", s.Nodes)
	}
}

// randomBinaryProblem builds a random maximization problem over nb binaries
// and nc continuous variables, feasible by construction (all-zeros always
// satisfies the ≤ rows with nonnegative RHS).
func randomBinaryProblem(r *rand.Rand, nb, nc int) (*Problem, int) {
	p := NewProblem()
	p.SetMaximize(true)
	for i := 0; i < nb; i++ {
		p.AddBinVar("b", math.Floor(r.Float64()*20))
	}
	for i := 0; i < nc; i++ {
		v := p.AddVar("c", r.Float64()*2)
		p.AddConstraint([]lp.Term{{Var: v, Coef: 1}}, lp.LE, 5*r.Float64())
	}
	rows := 1 + r.Intn(4)
	for k := 0; k < rows; k++ {
		terms := make([]lp.Term, 0, nb+nc)
		for j := 0; j < nb+nc; j++ {
			terms = append(terms, lp.Term{Var: j, Coef: math.Floor(r.Float64() * 8)})
		}
		p.AddConstraint(terms, lp.LE, 4+math.Floor(r.Float64()*float64(4*nb)))
	}
	return p, nb
}

// bruteForceBest enumerates all binary assignments, fixes them with equality
// rows, LP-solves the continuous remainder and returns the best objective.
func bruteForceBest(p *Problem, nb int) (float64, bool) {
	best := math.Inf(-1)
	found := false
	for mask := 0; mask < 1<<nb; mask++ {
		q := p.Problem.Clone()
		for j := 0; j < nb; j++ {
			val := float64((mask >> j) & 1)
			q.AddConstraint([]lp.Term{{Var: j, Coef: 1}}, lp.EQ, val)
		}
		s := q.Solve()
		if s.Status == lp.Optimal {
			found = true
			if s.Objective > best {
				best = s.Objective
			}
		}
	}
	return best, found
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 3 + r.Intn(5) // 3..7 binaries → ≤ 128 enumerations
		nc := r.Intn(3)
		p, _ := randomBinaryProblem(r, nb, nc)
		want, feasible := bruteForceBest(p, nb)
		s := p.Solve()
		if !feasible {
			return s.Status == Infeasible
		}
		if s.Status != Optimal {
			t.Logf("seed %d: status %v, brute force found %v", seed, s.Status, want)
			return false
		}
		if !near(s.Objective, want, 1e-5*(1+math.Abs(want))) {
			t.Logf("seed %d: b&b %v != brute force %v", seed, s.Objective, want)
			return false
		}
		if v := p.CheckFeasible(s.X, 1e-6); len(v) != 0 {
			t.Logf("seed %d: incumbent infeasible: %v", seed, v)
			return false
		}
		for j := 0; j < nb; j++ {
			if s.X[j] != 0 && s.X[j] != 1 {
				t.Logf("seed %d: binary %d = %v not exactly integral", seed, j, s.X[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicReproducesSequential pins that a solve is a pure function
// of its problem and options: the same hard knapsack solved on several
// goroutines at once reproduces a lone solve bit-for-bit — same node and
// pivot counts, same incumbent — so replays need no knob to pin the search.
// Run under -race in CI, it also probes for state shared between solves.
func TestDeterministicReproducesSequential(t *testing.T) {
	want := NewHardKnapsack(18, 3).Solve()
	if want.Status != Optimal {
		t.Fatalf("status %v", want.Status)
	}
	got := make([]Solution, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = NewHardKnapsack(18, 3).Solve()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g.Status != want.Status || g.Nodes != want.Nodes || g.Pivots != want.Pivots ||
			g.Objective != want.Objective || !reflect.DeepEqual(g.X, want.X) {
			t.Fatalf("run %d diverged: status %v/%v nodes %d/%d pivots %d/%d objective %v/%v",
				i, g.Status, want.Status, g.Nodes, want.Nodes, g.Pivots, want.Pivots, g.Objective, want.Objective)
		}
	}
}

func TestNumIntegerVars(t *testing.T) {
	p := NewProblem()
	p.AddVar("c", 1)
	p.AddIntVar("i", 1)
	p.AddBinVar("b", 1)
	if got := p.NumIntegerVars(); got != 2 {
		t.Errorf("NumIntegerVars = %d, want 2", got)
	}
	if p.IsInteger(0) || !p.IsInteger(1) || !p.IsInteger(2) {
		t.Errorf("integrality flags wrong")
	}
	p.SetInteger(0, true)
	if !p.IsInteger(0) {
		t.Errorf("SetInteger did not stick")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", Limit: "node-limit", Status(9): "Status(9)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

// TestStartBasisMatchesColdProperty is the solver-level equivalence property
// behind the cross-hour root basis: a previous optimum's RootBasis fed back as
// StartBasis must return the same objective as a cold solve, across
// randomized instances and a perturbed "next hour" of each.
func TestStartBasisMatchesColdProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		build := func() (*Problem, int) {
			r := rand.New(rand.NewSource(seed))
			nb := 8 + r.Intn(8)
			nc := r.Intn(4)
			p, _ := randomBinaryProblem(r, nb, nc)
			return p, nb
		}
		p, nb := build()

		cold := p.SolveWithOptions(Options{})
		warm := p.SolveWithOptions(Options{StartBasis: cold.RootBasis})
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

		// "Next hour": the same instance with its last row tightened a bit,
		// crashed from this hour's root basis, which may no longer be
		// optimal or even feasible there and must never corrupt the solve.
		q, _ := build()
		if q.NumConstraints() > nb { // rows beyond the per-binary ≤1 bounds exist
			c := q.Problem.Constraint(q.NumConstraints() - 1)
			q.Problem.SetRHS(q.NumConstraints()-1, c.RHS*0.9)
		}
		qc := q.SolveWithOptions(Options{})
		qw := q.SolveWithOptions(Options{StartBasis: cold.RootBasis})
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
