package lp

import "math"

// WarmStart captures an optimally solved base state so that closely related
// problems — the original plus a few extra inequality rows, exactly what
// branch-and-bound generates — can be re-solved by the dual simplex method
// from the parent's basis instead of from scratch. This is the warm-start
// strategy MILP solvers like lp_solve use, and it is what makes the B&B
// node cost a handful of pivots rather than a full two-phase solve.
//
// The state is recorded by whichever core produced the base optimum and all
// ReSolves (including their cold fallbacks) stay on that core. On the sparse
// core, single-variable extra rows — all that branch and bound ever generates
// — become bound tightenings on the frozen solver state, so a node re-solve
// works on a basis of the same size as the root instead of a grown tableau.
type WarmStart struct {
	problem *Problem
	core    Core
	root    Solution

	// Dense-oracle state.
	base     *tableau // optimal tableau of the base problem (never mutated)
	artStart int      // first artificial column; [artStart, base.n) barred
	costs    []float64

	// Sparse-core state: the frozen optimal solver; ReSolve mutates clones.
	rev *revSolver
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
	if opt.core() == CoreSparse {
		sol, rs, ok := p.solveRevised(opt)
		if ok {
			if sol.Status != Optimal {
				return nil, sol
			}
			return &WarmStart{problem: p, core: CoreSparse, rev: rs, root: sol}, sol
		}
		// Sparse core hit a numerical wall; record a dense warm start instead.
	}
	sol, t, artStart := p.solveTableau(opt)
	if sol.Status != Optimal {
		return nil, sol
	}
	costs := make([]float64, t.n)
	for j := 0; j < len(p.obj); j++ {
		if p.maximize {
			costs[j] = -p.obj[j]
		} else {
			costs[j] = p.obj[j]
		}
	}
	return &WarmStart{problem: p, core: CoreDense, base: t, artStart: artStart, costs: costs, root: sol}, sol
}

// Root returns the base problem's optimal solution.
func (w *WarmStart) Root() Solution { return w.root }

// Basis returns a copy of the optimal basis of the base problem: one basis
// column index per row, in the recording core's own numbering. The sparse
// core's layout (structural variables 0..n-1, then the slack of row i at
// n+i) depends only on the problem's shape, so the basis can seed
// Options.CrashBasis on a later problem with the same structure — the
// cross-problem analogue of ReSolve's same-problem warm start. The dense
// oracle's layout likewise follows from its constraint relations. A basis
// handed to the other core simply fails its shape screen and the solve goes
// cold, never wrong.
func (w *WarmStart) Basis() []int {
	if w.core == CoreSparse {
		pr := w.rev.pr
		out := make([]int, pr.m)
		for i, b := range w.rev.basis {
			if b >= pr.n+pr.m {
				// A redundant row kept its phase-1 artificial basic at zero;
				// the row's slack is an equivalent crash column.
				b = pr.n + pr.artRow[b-pr.n-pr.m]
			}
			out[i] = b
		}
		return out
	}
	return append([]int(nil), w.base.basis...)
}

// ReSolve solves the base problem plus the extra rows, warm-starting the
// dual simplex from the base optimum. It falls back to a cold two-phase
// solve if the dual iteration struggles (pivot cap), so the answer is
// always as reliable as Solve's.
func (w *WarmStart) ReSolve(extra []ExtraRow) Solution {
	if len(extra) == 0 {
		return w.root
	}
	if w.core == CoreSparse {
		return w.reSolveSparse(extra)
	}
	nStruct := len(w.problem.obj)
	oldN := w.base.n
	newN := oldN + len(extra) // one slack per extra row
	m := w.base.m + len(extra)

	t := &tableau{m: m, n: newN, a: make([][]float64, m), basis: make([]int, m)}
	for i := 0; i < w.base.m; i++ {
		row := make([]float64, newN+1)
		copy(row, w.base.a[i][:oldN])
		row[newN] = w.base.a[i][oldN]
		t.a[i] = row
		t.basis[i] = w.base.basis[i]
	}
	costs := make([]float64, newN)
	copy(costs, w.costs)

	for k, ex := range extra {
		row := make([]float64, newN+1)
		sign := 1.0
		if ex.Rel == GE {
			sign = -1 // a·x ≥ b  →  −a·x ≤ −b
		}
		for _, term := range ex.Terms {
			if term.Var < 0 || term.Var >= nStruct {
				return Solution{Status: Infeasible}
			}
			row[term.Var] += sign * term.Coef
		}
		slack := oldN + k
		row[slack] = 1
		row[newN] = sign * ex.RHS
		// Express the row in the current basis: eliminate every basic
		// column using its defining row.
		for i := 0; i < w.base.m; i++ {
			b := t.basis[i]
			if f := row[b]; f != 0 {
				base := t.a[i]
				for j := 0; j <= newN; j++ {
					row[j] -= f * base[j]
				}
				row[b] = 0
			}
		}
		t.a[w.base.m+k] = row
		t.basis[w.base.m+k] = slack
	}

	banned := func(j int) bool { return j >= w.artStart && j < oldN }
	pivots := 0
	maxPivots := 50*(m+newN) + 500
	st := t.dualSimplex(costs, banned, maxPivots, &pivots)
	if st == Optimal {
		// Primal polish: exact optimality may have been lost to clamped
		// reduced-cost noise; the primal simplex terminates immediately when
		// the point is already optimal, so this is nearly free.
		if ps := t.optimize(costs, banned, maxPivots, &pivots); ps != Optimal {
			st = IterLimit // force the cold fallback below
		}
	}
	switch st {
	case Optimal:
		x := make([]float64, nStruct)
		for i, b := range t.basis {
			if b < nStruct {
				x[b] = t.a[i][newN]
			}
		}
		obj := 0.0
		for j := 0; j < nStruct; j++ {
			obj += w.problem.obj[j] * x[j]
		}
		return Solution{Status: Optimal, X: x, Objective: obj, Pivots: pivots}
	case Infeasible:
		return Solution{Status: Infeasible, Pivots: pivots}
	}
	// Dual iteration hit its cap (rare: heavy degeneracy). Fall back to the
	// cold solver for a guaranteed-correct answer.
	sol := w.coldExtra(extra)
	sol.Pivots += pivots
	return sol
}

// coldExtra solves problem+extra from scratch on the warm start's own core,
// the guaranteed-correct fallback shared by both ReSolve paths.
func (w *WarmStart) coldExtra(extra []ExtraRow) Solution {
	q := w.problem.Clone()
	for _, ex := range extra {
		q.AddConstraint(ex.Terms, ex.Rel, ex.RHS)
	}
	return q.SolveWithOptions(Options{Core: w.core})
}

// reSolveSparse re-solves the base problem plus the extra rows on the sparse
// core. Single-variable rows — everything branch and bound generates — become
// bound tightenings on a clone of the frozen optimal state: the reduced costs
// are untouched (costs and basis are unchanged), so the point stays dual
// feasible and the dual simplex repairs the handful of bound violations in a
// few pivots on a basis that never grew. Multi-variable rows take the cold
// fallback.
func (w *WarmStart) reSolveSparse(extra []ExtraRow) Solution {
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
	if !single {
		return w.coldExtra(extra)
	}

	c := w.rev.cloneForReSolve()
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

// dualSimplex restores primal feasibility of a dual-feasible tableau: while
// some right-hand side is negative, pivot on that row with the entering
// column chosen by the dual ratio test. Returns Optimal when all RHS ≥ 0,
// Infeasible when a negative row has no negative entry, IterLimit at the
// pivot cap.
func (t *tableau) dualSimplex(costs []float64, banned func(int) bool, maxPivots int, pivots *int) Status {
	zrow := t.reducedCosts(costs)
	// The base tableau is optimal, so reduced costs are ≥ −tol; clamp the
	// tolerance noise to keep the ratio test sane.
	for j := range zrow {
		if zrow[j] < 0 {
			zrow[j] = 0
		}
	}
	for {
		if *pivots >= maxPivots {
			return IterLimit
		}
		// Leaving row: most negative RHS.
		leave := -1
		worst := -zeroTol
		for i := 0; i < t.m; i++ {
			if b := t.a[i][t.n]; b < worst {
				worst = b
				leave = i
			}
		}
		if leave < 0 {
			return Optimal
		}
		// Entering column: dual ratio test over negative entries of the
		// leaving row; ties break toward the lowest column index.
		row := t.a[leave]
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < t.n; j++ {
			if banned != nil && banned(j) {
				continue
			}
			a := row[j]
			if a >= -pivotTol {
				continue
			}
			ratio := zrow[j] / -a
			if ratio < bestRatio-zeroTol || (ratio < bestRatio+zeroTol && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible
		}
		t.pivot(leave, enter)
		if f := zrow[enter]; f != 0 {
			pr := t.a[leave]
			for j := 0; j < t.n; j++ {
				zrow[j] -= f * pr[j]
			}
			zrow[enter] = 0
		}
		// Pivoting can reintroduce tiny negative reduced costs; clamp to
		// preserve dual feasibility of the test.
		for j := 0; j < t.n; j++ {
			if zrow[j] < 0 && zrow[j] > -1e-7 {
				zrow[j] = 0
			}
		}
		*pivots++
	}
}
