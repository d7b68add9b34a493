package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomOracleProblem draws a small LP with continuous coefficients (so ties
// and alternate optima are measure-zero), mixing default, boxed, shifted and
// fixed variable bounds with LE/GE/EQ rows in both optimization directions.
func randomOracleProblem(r *rand.Rand) *Problem {
	p := NewProblem()
	p.SetMaximize(r.Intn(2) == 0)
	n := 2 + r.Intn(5)
	for j := 0; j < n; j++ {
		v := p.AddVar("x", r.Float64()*10-3)
		switch r.Intn(4) {
		case 0: // default [0, +Inf)
		case 1:
			p.SetVarBounds(v, 0, 0.5+4*r.Float64())
		case 2:
			lo := r.Float64() * 2
			p.SetVarBounds(v, lo, lo+0.5+4*r.Float64())
		case 3:
			val := r.Float64() * 3
			p.SetVarBounds(v, val, val)
		}
	}
	m := 1 + r.Intn(5)
	for k := 0; k < m; k++ {
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				continue // keep some sparsity
			}
			terms = append(terms, Term{Var: j, Coef: r.Float64()*8 - 3})
		}
		rel := []Rel{LE, LE, GE, EQ}[r.Intn(4)]
		rhs := r.Float64()*20 - 4
		if rel == GE {
			rhs = -math.Abs(rhs) // keep a feasible region reasonably often
		}
		p.AddConstraint(terms, rel, rhs)
	}
	return p
}

// TestSparseMatchesDenseOracleProperty is the cross-oracle contract: on random
// bounded-variable LPs the sparse revised simplex and the dense tableau must
// agree on status, on the objective to 1e-6, and on the dual vector. The
// sparse side calls the core directly: through Solve, a sparse failure would
// pass as the dense fallback's answer. Run with -race in CI; the two solves
// share nothing but the immutable Problem.
func TestSparseMatchesDenseOracleProperty(t *testing.T) {
	prop := func(seed int64) bool {
		p := randomOracleProblem(rand.New(rand.NewSource(seed)))
		ds := p.solveDense(Options{})
		ss, _, ok := p.solveRevised(Options{})
		if !ok {
			t.Logf("seed %d: sparse core hit a numerical wall", seed)
			return false
		}
		if ds.Status != ss.Status {
			t.Logf("seed %d: status dense=%v sparse=%v", seed, ds.Status, ss.Status)
			return false
		}
		if ds.Status != Optimal {
			return true
		}
		scale := 1 + math.Abs(ds.Objective)
		if math.Abs(ds.Objective-ss.Objective) > 1e-6*scale {
			t.Logf("seed %d: obj dense=%v sparse=%v", seed, ds.Objective, ss.Objective)
			return false
		}
		if res := p.CheckFeasible(ss.X, 1e-6); len(res) != 0 {
			t.Logf("seed %d: sparse point infeasible: %v", seed, res)
			return false
		}
		if len(ds.Duals) != len(ss.Duals) {
			t.Logf("seed %d: dual length %d vs %d", seed, len(ds.Duals), len(ss.Duals))
			return false
		}
		for k := range ds.Duals {
			if math.Abs(ds.Duals[k]-ss.Duals[k]) > 1e-5*(1+math.Abs(ds.Duals[k])) {
				t.Logf("seed %d: dual[%d] dense=%v sparse=%v", seed, k, ds.Duals[k], ss.Duals[k])
				return false
			}
		}
		// Work accounting sanity: eta updates happen only on basis-changing
		// pivots, and the dense oracle never reports factorization work.
		if ss.BasisUpdates > ss.Pivots {
			t.Logf("seed %d: %d basis updates exceed %d pivots", seed, ss.BasisUpdates, ss.Pivots)
			return false
		}
		if ds.Refactorizations != 0 || ds.BasisUpdates != 0 {
			t.Logf("seed %d: dense oracle reported factorization work", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestBlandFallbackOnCyclingProne pins the stall guard: highly degenerate
// instances — every vertex ties at zero, so almost every ratio test returns a
// zero step — must still terminate at the optimum instead of cycling or
// exhausting the pivot budget. The mesh below gives the pricing rule hundreds
// of degenerate columns to churn through, which is what trips the Bland's-rule
// fallback when Devex alone keeps selecting zero-step pivots.
func TestBlandFallbackOnCyclingProne(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := NewProblem()
	const n = 40
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar("x", -1) // every column wants to enter
	}
	// A ring of x_i ≤ x_{i+1} plus random cross ties, all with rhs 0, and a
	// single cap Σx ≤ 0: with x ≥ 0 the only feasible point is the origin,
	// and every row is active there.
	for i := 0; i < n; i++ {
		p.AddConstraint([]Term{{vars[i], 1}, {vars[(i+1)%n], -1}}, LE, 0)
	}
	for k := 0; k < 2*n; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		p.AddConstraint([]Term{{vars[i], 1}, {vars[j], -1}}, LE, 0)
	}
	capTerms := make([]Term, n)
	for i := range capTerms {
		capTerms[i] = Term{vars[i], 1}
	}
	p.AddConstraint(capTerms, LE, 0)

	opt := Options{MaxPivots: 20000}
	sparse, _, ok := p.solveRevised(opt)
	if !ok {
		t.Fatal("sparse core hit a numerical wall")
	}
	for _, c := range []struct {
		core string
		sol  Solution
	}{{"sparse", sparse}, {"dense", p.solveDense(opt)}} {
		if c.sol.Status != Optimal {
			t.Fatalf("%s core: status %v, want optimal (anti-cycling failed)", c.core, c.sol.Status)
		}
		if !near(c.sol.Objective, 0, 1e-9) {
			t.Errorf("%s core: objective %v, want 0", c.core, c.sol.Objective)
		}
	}
}

// TestDegenerateBealeSparse re-runs Beale's classic cycling example on the
// sparse core alone (TestDegenerateBeale goes through Solve, which would
// hide a sparse failure behind the dense fallback).
func TestDegenerateBealeSparse(t *testing.T) {
	p := NewProblem()
	x1 := p.AddVar("x1", -0.75)
	x2 := p.AddVar("x2", 150)
	x3 := p.AddVar("x3", -0.02)
	x4 := p.AddVar("x4", 6)
	p.AddConstraint([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint([]Term{{x3, 1}}, LE, 1)
	s, _, ok := p.solveRevised(Options{MaxPivots: 5000})
	if !ok {
		t.Fatal("sparse core hit a numerical wall")
	}
	if s.Status != Optimal || !near(s.Objective, -0.05, 1e-8) {
		t.Fatalf("got %v obj=%v, want optimal -0.05", s.Status, s.Objective)
	}
}
