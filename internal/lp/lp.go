// Package lp solves linear programs in the form
//
//	minimize    c·x
//	subject to  a_k·x (≤ | = | ≥) b_k   for every constraint k
//	            lo ≤ x ≤ hi             (lo ≥ 0; hi may be +Inf)
//
// Every solve runs on a sparse revised simplex over a CSC-stored constraint
// matrix with an LU-factorized basis, eta-file updates between periodic
// refactorizations, native bounded-variable handling and Devex pricing.
// Branching bounds and binary bounds are bound changes, not rows, so the
// basis never grows during branch and bound. A solve can also crash from a
// Basis carried from a related problem of another shape (Options.CrashBasis).
//
// The original dense two-phase tableau simplex (variable bounds lowered into
// explicit rows) stays inside the package, unexported and cold-only, for two
// jobs: it answers when a sparse refactorization goes numerically singular,
// and it is the oracle the cross-checking tests compare the sparse core
// against.
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Rel is the relation of a constraint row to its right-hand side.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // a·x ≤ b
	GE            // a·x ≥ b
	EQ            // a·x = b
)

// String returns the conventional symbol for the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Term is one sparse entry of a constraint or objective row.
type Term struct {
	Var  int     // variable index, 0-based
	Coef float64 // coefficient
}

// Constraint is a single linear row a·x (rel) b stored sparsely: Terms holds
// one entry per variable the row references, sorted by variable index, and a
// variable given more than once carries the sum of its coefficients, added
// in the order they were given. An entry whose coefficients sum to zero
// stays (the row still references the variable); every consumer skips zero
// coefficients exactly as it skipped the zeros of a dense row.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Problem is a linear program under construction. The zero value is an empty
// problem ready for AddVar / AddConstraint.
type Problem struct {
	obj         []float64
	names       []string
	lower       []float64 // per-variable lower bounds (finite, ≥ 0)
	upper       []float64 // per-variable upper bounds (may be +Inf)
	constraints []Constraint
	maximize    bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// SetMaximize flips the optimization direction to maximization. The reported
// Solution.Objective is then the maximized value.
func (p *Problem) SetMaximize(max bool) { p.maximize = max }

// Maximizing reports whether the problem maximizes its objective.
func (p *Problem) Maximizing() bool { return p.maximize }

// AddVar appends a nonnegative variable with the given objective coefficient
// and returns its index. The name is only used for diagnostics.
func (p *Problem) AddVar(name string, objCoef float64) int {
	p.obj = append(p.obj, objCoef)
	p.names = append(p.names, name)
	p.lower = append(p.lower, 0)
	p.upper = append(p.upper, math.Inf(1))
	return len(p.obj) - 1
}

// SetVarBounds replaces the bounds of variable v with lo ≤ x_v ≤ hi. The
// lower bound must be finite and nonnegative (the solver keeps x ≥ 0 exact);
// hi may be +Inf. The sparse core handles bounds natively — they cost no
// constraint rows — while the dense tableau lowers them into internal rows.
func (p *Problem) SetVarBounds(v int, lo, hi float64) {
	if v < 0 || v >= len(p.obj) {
		panic(fmt.Sprintf("lp: SetVarBounds on unknown variable %d", v))
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || lo < 0 || hi < lo {
		panic(fmt.Sprintf("lp: invalid bounds [%g, %g] for variable %d", lo, hi, v))
	}
	p.lower[v] = lo
	p.upper[v] = hi
}

// VarBounds returns the [lo, hi] bounds of variable v (default [0, +Inf)).
func (p *Problem) VarBounds(v int) (lo, hi float64) { return p.lower[v], p.upper[v] }

// defaultBounds reports whether variable v still has the AddVar default
// bounds [0, +Inf).
func (p *Problem) defaultBounds(v int) bool {
	return p.lower[v] == 0 && math.IsInf(p.upper[v], 1)
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// VarName returns the diagnostic name of variable v.
func (p *Problem) VarName(v int) string {
	if v < 0 || v >= len(p.names) {
		return fmt.Sprintf("x%d", v)
	}
	return p.names[v]
}

// ObjectiveCoef returns the objective coefficient of variable v.
func (p *Problem) ObjectiveCoef(v int) float64 { return p.obj[v] }

// SetObjectiveCoef overwrites the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v int, c float64) { p.obj[v] = c }

// AddConstraint appends the row Σ terms (rel) rhs and returns its index.
// Terms referencing the same variable accumulate, in the order given. The
// caller's slice is copied, never retained.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) int {
	row := slices.Clone(terms)
	sorted := true
	for k, t := range row {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
		if k > 0 && t.Var <= row[k-1].Var {
			sorted = false
		}
	}
	if !sorted {
		// A stable sort keeps each variable's repeats in the order given,
		// so merging them adds the coefficients in that order.
		slices.SortStableFunc(row, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
		out := row[:1]
		for _, t := range row[1:] {
			if last := &out[len(out)-1]; last.Var == t.Var {
				last.Coef += t.Coef
			} else {
				out = append(out, t)
			}
		}
		row = out
	}
	p.constraints = append(p.constraints, Constraint{Terms: row, Rel: rel, RHS: rhs})
	return len(p.constraints) - 1
}

// Constraint returns a copy-free view of row k. Callers must not mutate it.
func (p *Problem) Constraint(k int) Constraint { return p.constraints[k] }

// SetRHS overwrites the right-hand side of constraint row k.
func (p *Problem) SetRHS(k int, rhs float64) { p.constraints[k].RHS = rhs }

// Clone returns a copy of the problem, so that the copy can gain extra rows
// (e.g. branching bounds), variables, bounds or right-hand sides without
// disturbing the original. The rows' term slices are shared: nothing
// mutates a row's terms once AddConstraint has stored them.
func (p *Problem) Clone() *Problem {
	return &Problem{
		obj:         slices.Clone(p.obj),
		names:       slices.Clone(p.names),
		lower:       slices.Clone(p.lower),
		upper:       slices.Clone(p.upper),
		constraints: slices.Clone(p.constraints),
		maximize:    p.maximize,
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // an optimal basic feasible solution was found
	Infeasible               // no point satisfies all constraints
	Unbounded                // the objective decreases without bound
	IterLimit                // the pivot limit was exhausted (should not happen)
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid when Status == Optimal)
	Objective float64   // objective value in the problem's own direction
	Pivots    int       // simplex iterations performed across both phases
	// Duals holds one shadow price per constraint row (valid when Status ==
	// Optimal): the rate of change of the optimal objective per unit of
	// right-hand side, in the problem's own optimization direction. This is
	// what makes the locational marginal price of a power-balance row drop
	// out of an optimal power flow.
	Duals []float64
	// Refactorizations and BasisUpdates count the sparse core's LU rebuilds
	// and eta-file basis updates; both stay 0 when the dense tableau
	// answered instead.
	Refactorizations int
	BasisUpdates     int
	// Warm reports that the solve finished from Options.CrashBasis; false
	// for a cold solve, including one a failed crash fell back to.
	Warm bool
}

// Residual describes how much a solution violates one constraint.
type Residual struct {
	Row       int
	Violation float64 // positive amount by which the row is violated
}

// CheckFeasible returns the rows of p violated by x beyond tol, including
// variable-bound violations (reported with Row == -1-varIndex).
func (p *Problem) CheckFeasible(x []float64, tol float64) []Residual {
	var out []Residual
	for v, xv := range x {
		lo, hi := 0.0, math.Inf(1)
		if v < len(p.lower) {
			lo, hi = p.lower[v], p.upper[v]
		}
		if xv < lo-tol {
			out = append(out, Residual{Row: -1 - v, Violation: lo - xv})
		} else if xv > hi+tol {
			out = append(out, Residual{Row: -1 - v, Violation: xv - hi})
		}
	}
	for k, c := range p.constraints {
		dot := 0.0
		for _, t := range c.Terms {
			if t.Var < len(x) {
				dot += t.Coef * x[t.Var]
			}
		}
		var viol float64
		switch c.Rel {
		case LE:
			viol = dot - c.RHS
		case GE:
			viol = c.RHS - dot
		case EQ:
			viol = math.Abs(dot - c.RHS)
		}
		if viol > tol {
			out = append(out, Residual{Row: k, Violation: viol})
		}
	}
	return out
}

// Eval returns the objective value of x in the problem's own direction.
func (p *Problem) Eval(x []float64) float64 {
	dot := 0.0
	for j, c := range p.obj {
		if j < len(x) {
			dot += c * x[j]
		}
	}
	return dot
}
