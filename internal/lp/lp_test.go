package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleMin(t *testing.T) {
	// min x+y s.t. x+2y >= 4, 3x+y >= 6, x,y >= 0. Optimum at intersection
	// (8/5, 6/5) with value 14/5.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint([]Term{{x, 1}, {y, 2}}, GE, 4)
	p.AddConstraint([]Term{{x, 3}, {y, 1}}, GE, 6)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, 14.0/5, 1e-8) {
		t.Errorf("objective = %v, want 2.8", s.Objective)
	}
	if !near(s.X[x], 1.6, 1e-8) || !near(s.X[y], 1.2, 1e-8) {
		t.Errorf("x = %v, want (1.6, 1.2)", s.X)
	}
}

func TestSimpleMax(t *testing.T) {
	// max 3x+5y s.t. x <= 4, 2y <= 12, 3x+2y <= 18. Classic optimum 36 at (2,6).
	p := NewProblem()
	p.SetMaximize(true)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	p.AddConstraint([]Term{{y, 2}}, LE, 12)
	p.AddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, 36, 1e-8) {
		t.Errorf("objective = %v, want 36", s.Objective)
	}
	if !near(s.X[x], 2, 1e-8) || !near(s.X[y], 6, 1e-8) {
		t.Errorf("x = %v, want (2, 6)", s.X)
	}
}

func TestEquality(t *testing.T) {
	// min 2x+3y s.t. x+y = 10, x-y <= 2. Optimum x=10,y=0? Check: minimize
	// 2x+3y with x+y=10 prefers all weight on x, but x-y<=2 forces x <= 6,
	// y >= 4: x=6, y=4, obj = 24.
	p := NewProblem()
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, 2)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, 24, 1e-8) {
		t.Errorf("objective = %v, want 24", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 3)
	if s := p.Solve(); s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -1) // minimize -x with x free above
	p.AddConstraint([]Term{{x, 1}}, GE, 1)
	if s := p.Solve(); s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x - y <= -4  is  x + y >= 4; min x+2y → x=4, y=0, obj 4.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	p.AddConstraint([]Term{{x, -1}, {y, -1}}, LE, -4)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, 4, 1e-8) {
		t.Errorf("objective = %v, want 4", s.Objective)
	}
}

func TestNegativeRHSEquality(t *testing.T) {
	// -x = -7 → x = 7.
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint([]Term{{x, -1}}, EQ, -7)
	s := p.Solve()
	if s.Status != Optimal || !near(s.X[x], 7, 1e-8) {
		t.Fatalf("got %v x=%v, want optimal x=7", s.Status, s.X)
	}
}

func TestDegenerateBeale(t *testing.T) {
	// Beale's classic cycling example. With anti-cycling safeguards the
	// solver must terminate at optimum -0.05.
	p := NewProblem()
	x1 := p.AddVar("x1", -0.75)
	x2 := p.AddVar("x2", 150)
	x3 := p.AddVar("x3", -0.02)
	x4 := p.AddVar("x4", 6)
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !near(s.Objective, -0.05, 1e-8) {
		t.Errorf("objective = %v, want -0.05", s.Objective)
	}
}

func TestZeroConstraintProblem(t *testing.T) {
	// No constraints: min of a nonnegative-coefficient objective is 0 at x=0.
	p := NewProblem()
	p.AddVar("x", 3)
	p.AddVar("y", 1)
	s := p.Solve()
	if s.Status != Optimal || !near(s.Objective, 0, 1e-12) {
		t.Fatalf("got %v obj=%v, want optimal 0", s.Status, s.Objective)
	}
}

func TestAddVarAfterConstraint(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	y := p.AddVar("y", 1) // the existing row does not reference it
	p.AddConstraint([]Term{{y, 1}}, GE, 3)
	s := p.Solve()
	if s.Status != Optimal || !near(s.Objective, 5, 1e-9) {
		t.Fatalf("got %v obj=%v, want optimal 5", s.Status, s.Objective)
	}
}

func TestClone(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint([]Term{{x, 1}}, GE, 2)
	q := p.Clone()
	q.AddConstraint([]Term{{x, 1}}, GE, 10)
	sp := p.Solve()
	sq := q.Solve()
	if !near(sp.Objective, 2, 1e-9) || !near(sq.Objective, 10, 1e-9) {
		t.Fatalf("clone leaked rows: p=%v q=%v", sp.Objective, sq.Objective)
	}
}

func TestCheckFeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 5)
	p.AddConstraint([]Term{{x, 1}}, GE, 1)
	if v := p.CheckFeasible([]float64{2, 2}, 1e-9); len(v) != 0 {
		t.Errorf("feasible point flagged: %v", v)
	}
	viol := p.CheckFeasible([]float64{6, 0}, 1e-9)
	if len(viol) != 1 || viol[0].Row != 0 || !near(viol[0].Violation, 1, 1e-9) {
		t.Errorf("violations = %v, want row 0 by 1", viol)
	}
	if v := p.CheckFeasible([]float64{-1, 3}, 1e-9); len(v) == 0 {
		t.Errorf("negative variable not flagged")
	}
}

// randomFeasibleLP builds a random LP that is feasible by construction: a
// random nonnegative point x0 is chosen first and every ≤ row gets slack on
// top of a·x0, every ≥ row gets rhs below a·x0.
func randomFeasibleLP(r *rand.Rand) (*Problem, []float64) {
	n := 2 + r.Intn(6)
	m := 1 + r.Intn(8)
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = 10 * r.Float64()
	}
	p := NewProblem()
	for j := 0; j < n; j++ {
		p.AddVar("x", r.Float64()*4-1) // mixed-sign costs
	}
	for k := 0; k < m; k++ {
		terms := make([]Term, n)
		dot := 0.0
		for j := 0; j < n; j++ {
			c := r.Float64()*6 - 3
			terms[j] = Term{j, c}
			dot += c * x0[j]
		}
		if r.Intn(2) == 0 {
			p.AddConstraint(terms, LE, dot+r.Float64()*5)
		} else {
			p.AddConstraint(terms, GE, dot-r.Float64()*5)
		}
	}
	// Box the variables so the problem cannot be unbounded.
	for j := 0; j < n; j++ {
		p.AddConstraint([]Term{{j, 1}}, LE, 25)
	}
	return p, x0
}

func TestRandomFeasibleProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, x0 := randomFeasibleLP(r)
		s := p.Solve()
		if s.Status != Optimal {
			t.Logf("seed %d: status %v on feasible-by-construction LP", seed, s.Status)
			return false
		}
		if v := p.CheckFeasible(s.X, 1e-6); len(v) != 0 {
			t.Logf("seed %d: solution infeasible: %v", seed, v)
			return false
		}
		// Optimality versus the known feasible point.
		if s.Objective > p.Eval(x0)+1e-6 {
			t.Logf("seed %d: objective %v worse than feasible point %v", seed, s.Objective, p.Eval(x0))
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMaximizeMatchesNegatedMinimize(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleLP(r)
		q := p.Clone()
		q.SetMaximize(true)
		for j := 0; j < q.NumVars(); j++ {
			q.SetObjectiveCoef(j, -q.ObjectiveCoef(j))
		}
		sp := p.Solve()
		sq := q.Solve()
		if sp.Status != sq.Status {
			return false
		}
		if sp.Status != Optimal {
			return true
		}
		return near(sp.Objective, -sq.Objective, 1e-6*(1+math.Abs(sp.Objective)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit", Status(9): "Status(9)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
	rels := map[Rel]string{LE: "<=", GE: ">=", EQ: "=", Rel(7): "Rel(7)"}
	for rl, want := range rels {
		if rl.String() != want {
			t.Errorf("Rel String = %q, want %q", rl.String(), want)
		}
	}
}
