package lp

// WarmStart captures an optimally solved base state so that closely related
// problems — the original plus a few extra inequality rows, exactly what
// branch-and-bound generates — can be re-solved by the dual simplex method
// from the base optimum's basis instead of from scratch. This is the
// warm-start strategy MILP solvers like lp_solve use, and it is what makes
// the B&B node cost a handful of pivots rather than a full two-phase solve.
//
// Single-variable extra rows — all that branch and bound ever generates —
// become bound tightenings on a copy of the frozen sparse solver state, so a
// node re-solve works on a basis of the same size as the root instead of a
// grown tableau. The copy lives in one node workspace, allocated by the
// first ReSolve and reset from the frozen state by each, so a warm ReSolve
// allocates nothing but its answer. A base optimum the dense tableau
// answered (the sparse core went numerically singular) freezes no state:
// every ReSolve of it is cold.
//
// A WarmStart belongs to one goroutine: ReSolve reuses the workspace, so
// concurrent calls on one WarmStart race. Root and Basis only read.
type WarmStart struct {
	problem *Problem
	root    Solution
	// rev is the frozen optimal sparse solver, only read once frozen. nil
	// when the dense tableau answered the base problem.
	rev *revSolver
	// node is the workspace ReSolve runs in, and nodeF its factor until a
	// refactorization replaces it; both are reset from rev by every ReSolve.
	node  *revSolver
	nodeF luFactor
}

// ExtraRow is an additional inequality a·x (≤|≥) b over the structural
// variables. Equality rows are not supported (branch bounds never need
// them); pass two opposing inequalities instead.
type ExtraRow struct {
	Terms []Term
	Rel   Rel
	RHS   float64
}

// SolveForWarmStart solves the problem and, when it is optimal, returns a
// WarmStart for re-solving with extra rows. The returned Solution is the
// base optimum (identical to Solve's).
func (p *Problem) SolveForWarmStart(opt Options) (*WarmStart, Solution) {
	sol, rs, ok := p.solveRevised(opt)
	if !ok {
		// The sparse core hit a numerical wall; the dense tableau answers
		// and the warm start keeps no frozen state.
		sol = p.solveDense(opt)
	}
	if sol.Status != Optimal {
		return nil, sol
	}
	return &WarmStart{problem: p, root: sol, rev: rs}, sol
}

// Root returns the base problem's optimal solution.
func (w *WarmStart) Root() Solution { return w.root }

// Basis returns the optimal basis of the base problem as a portable Basis
// (see Basis), to seed Options.CrashBasis on a later problem of the same
// family, whatever its shape: the cross-problem analogue of ReSolve's
// same-problem warm start. It is empty when the dense tableau answered the
// base problem.
func (w *WarmStart) Basis() Basis {
	if w.rev == nil {
		return Basis{}
	}
	pr := w.rev.pr
	cols := make([]int, pr.m)
	for i, b := range w.rev.basis {
		if b >= pr.n+pr.m {
			// A redundant row kept its phase-1 artificial basic at zero;
			// the row's slack is an equivalent crash column.
			b = pr.n + pr.artRow[b-pr.n-pr.m]
		}
		cols[i] = b
	}
	return w.problem.basisOf(cols)
}

// ReSolve solves the base problem plus the extra rows. Single-variable rows —
// everything branch and bound generates — become bound tightenings on the
// node workspace, reset to the frozen optimal state: the reduced costs are
// untouched (costs and basis are unchanged), so the point stays dual
// feasible and the dual simplex repairs the handful of bound violations in a
// few pivots on a basis that never grew. Multi-variable rows, a warm start
// without frozen state, and a dual iteration that struggles (pivot cap) all
// take a cold solve, so the answer is always as reliable as Solve's. The
// answer does not depend on earlier ReSolves, and ReSolve keeps no reference
// to extra once it returns. ReSolve must not be called concurrently on one
// WarmStart.
func (w *WarmStart) ReSolve(extra []ExtraRow) Solution {
	if len(extra) == 0 {
		return w.root
	}
	n := len(w.problem.obj)
	single := true
	for _, ex := range extra {
		if len(ex.Terms) != 1 || ex.Terms[0].Coef == 0 || ex.Rel == EQ {
			single = false
		}
		for _, t := range ex.Terms {
			if t.Var < 0 || t.Var >= n {
				return Solution{Status: Infeasible}
			}
		}
	}
	if !single || w.rev == nil {
		return w.coldExtra(extra)
	}

	if w.node == nil {
		w.node = w.rev.newNode()
	}
	c := w.node
	c.resetFrom(w.rev, &w.nodeF)
	pr := c.pr
	for _, ex := range extra {
		v, coef := ex.Terms[0].Var, ex.Terms[0].Coef
		bound := ex.RHS / coef
		rel := ex.Rel
		if coef < 0 {
			if rel == LE {
				rel = GE
			} else {
				rel = LE
			}
		}
		if rel == LE {
			if bound < pr.hi[v] {
				pr.hi[v] = bound
			}
		} else if bound > pr.lo[v] {
			pr.lo[v] = bound
		}
		if pr.lo[v] > pr.hi[v]+1e-9 {
			return Solution{Status: Infeasible}
		}
	}

	// Nonbasic columns whose pinned bound moved shift automatically through
	// value(); one FTRAN refreshes the basic values against the new point.
	c.computeXB()
	st := c.dual()
	if st == Optimal {
		// Primal polish: terminates immediately when already optimal.
		st = c.primal()
	}
	switch st {
	case Optimal:
		return c.extractX(w.problem, Optimal)
	case Infeasible:
		return c.extractX(w.problem, Infeasible)
	}
	// Pivot cap or numerical trouble: cold fallback, same answer guarantee.
	sol := w.coldExtra(extra)
	sol.Pivots += c.pivots
	return sol
}

// coldExtra solves problem+extra from scratch, the guaranteed-correct
// fallback of ReSolve.
func (w *WarmStart) coldExtra(extra []ExtraRow) Solution {
	q := w.problem.Clone()
	for _, ex := range extra {
		q.AddConstraint(ex.Terms, ex.Rel, ex.RHS)
	}
	return q.Solve()
}
