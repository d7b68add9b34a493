package lp

import "math"

// Numerical tolerances for the simplex method. The models in this repository
// mix magnitudes from 1e-3 (response-time seconds) to 1e8 (requests/hour), so
// callers are expected to scale their formulations into a sane range; these
// tolerances then behave well.
const (
	pivotTol = 1e-9 // minimum magnitude for a pivot element
	zeroTol  = 1e-9 // reduced-cost / feasibility tolerance
)

// Solve runs the simplex method and returns the solution.
// The zero options value is ready to use.
func (p *Problem) Solve() Solution { return p.SolveWithOptions(Options{}) }

// Options tune the solver. The zero value uses sensible defaults.
type Options struct {
	// MaxPivots caps the total number of simplex iterations across both
	// phases. 0 means 200·(rows+columns)+5000, far above what these problems
	// need.
	MaxPivots int
	// CrashBasis, when non-empty, is a basis (as returned by WarmStart.Basis
	// from a problem of the same family, of any shape) to crash into the
	// fresh solve, skipping phase 1. Columns it names that this problem
	// lacks or that are dependent give way to slacks; a start that is
	// neither primal nor dual feasible is repaired by the dual simplex on
	// shifted costs. A repair that runs past its pivot cap or ends in
	// anything but an optimum is discarded and the solve proceeds cold, so
	// the answer is always as reliable as a cold Solve.
	CrashBasis Basis
}

// SolveWithOptions is Solve with explicit options.
func (p *Problem) SolveWithOptions(opt Options) Solution {
	if sol, _, ok := p.solveRevised(opt); ok {
		return sol
	}
	// The sparse core hit a numerical wall (singular refactorization); the
	// dense tableau answers instead.
	return p.solveDense(opt)
}

// rowKind records how a constraint row was normalized into the tableau: its
// effective relation after the rhs ≥ 0 sign flip, and whether it was flipped.
type rowKind struct {
	rel Rel
	neg bool
}

// tabBuild is a freshly constructed (unsolved) tableau plus the bookkeeping
// needed to run phases, extract duals, and undo the rhs normalization.
type tabBuild struct {
	t           *tableau
	kinds       []rowKind
	artStart    int // first artificial column
	artificials int
	auxCol      []int     // per row: column whose final tableau column is B⁻¹e_k
	costs       []float64 // minimization-sense structural costs, len NumVars
}

// solveDense is the dense tableau's cold two-phase solve: the fallback for a
// sparse solve that went numerically singular, and the tests' oracle. It
// honours opt.MaxPivots and ignores opt.CrashBasis.
func (p *Problem) solveDense(opt Options) Solution {
	tb := p.buildTableau()
	t, artStart := tb.t, tb.artStart
	m := t.m
	total := t.n
	isArt := func(j int) bool { return j >= artStart }

	maxPivots := opt.MaxPivots
	if maxPivots == 0 {
		maxPivots = 200*(m+total) + 5000
	}
	pivots := 0

	if tb.artificials > 0 {
		// Phase 1: minimize the sum of artificial variables.
		phase1 := make([]float64, total)
		for j := artStart; j < total; j++ {
			phase1[j] = 1
		}
		st := t.optimize(phase1, nil, maxPivots, &pivots)
		if st == IterLimit {
			return Solution{Status: IterLimit, Pivots: pivots}
		}
		if t.objective(phase1) > 1e-7 {
			return Solution{Status: Infeasible, Pivots: pivots}
		}
		// Drive any basic artificials (at value 0) out of the basis where a
		// structural pivot exists; otherwise they stay at zero and are barred
		// from re-entering in phase 2.
		for i := 0; i < m; i++ {
			if !isArt(t.basis[i]) {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[i][j]) > 1e-7 {
					t.pivot(i, j)
					pivots++
					break
				}
			}
		}
	}

	// Phase 2: minimize the real objective with artificials barred.
	fullCosts := make([]float64, total)
	copy(fullCosts, tb.costs)
	st := t.optimize(fullCosts, isArt, maxPivots, &pivots)
	switch st {
	case IterLimit, Unbounded:
		return Solution{Status: st, Pivots: pivots}
	}
	return p.extractSolution(tb, fullCosts, pivots)
}

// denseRows returns the rows the dense tableau is built over: the
// problem's own constraints followed by rows synthesized from non-default
// variable bounds (x_v ≤ hi when finite, x_v ≥ lo when positive). The sparse
// core handles bounds natively; lowering them into explicit rows here keeps
// the dense tableau exactly as general without touching its pivoting code.
func (p *Problem) denseRows() []Constraint {
	n := len(p.obj)
	var extra []Constraint
	for v := 0; v < n && v < len(p.lower); v++ {
		lo, hi := p.lower[v], p.upper[v]
		if !math.IsInf(hi, 1) {
			extra = append(extra, Constraint{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: hi})
		}
		if lo > 0 {
			extra = append(extra, Constraint{Terms: []Term{{Var: v, Coef: 1}}, Rel: GE, RHS: lo})
		}
	}
	if extra == nil {
		return p.constraints
	}
	return append(append([]Constraint(nil), p.constraints...), extra...)
}

// buildTableau constructs the initial canonical tableau: one slack per LE,
// one surplus + one artificial per GE, one artificial per EQ, with every row
// normalized to rhs ≥ 0 first. Variable bounds arrive as lowered rows.
func (p *Problem) buildTableau() tabBuild {
	n := len(p.obj)
	rows := p.denseRows()
	m := len(rows)

	// Effective minimization objective.
	costs := make([]float64, n)
	copy(costs, p.obj)
	if p.maximize {
		for j := range costs {
			costs[j] = -costs[j]
		}
	}

	kinds := make([]rowKind, m)
	slacks, artificials := 0, 0
	for k, c := range rows {
		rel := c.Rel
		neg := c.RHS < 0
		if neg {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		kinds[k] = rowKind{rel: rel, neg: neg}
		switch rel {
		case LE:
			slacks++
		case GE:
			slacks++
			artificials++
		case EQ:
			artificials++
		}
	}

	total := n + slacks + artificials
	t := &tableau{
		m:     m,
		n:     total,
		a:     make([][]float64, m),
		basis: make([]int, m),
	}
	artStart := n + slacks
	slackCol := n
	artCol := artStart
	// auxCol[k] is a column whose initial coefficient pattern is +e_k: its
	// final tableau column is the k-th column of B⁻¹, from which the row's
	// dual value c_B·B⁻¹e_k is read off after the solve.
	auxCol := make([]int, m)
	for k, c := range rows {
		row := make([]float64, total+1)
		sign := 1.0
		if kinds[k].neg {
			sign = -1
		}
		for _, t := range c.Terms {
			row[t.Var] = sign * t.Coef
		}
		row[total] = sign * c.RHS
		switch kinds[k].rel {
		case LE:
			row[slackCol] = 1
			t.basis[k] = slackCol
			auxCol[k] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[k] = artCol
			auxCol[k] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[k] = artCol
			auxCol[k] = artCol
			artCol++
		}
		t.a[k] = row
	}

	return tabBuild{t: t, kinds: kinds, artStart: artStart, artificials: artificials, auxCol: auxCol, costs: costs}
}

// extractSolution reads the optimal point and row duals out of a solved
// tableau. fullCosts is the minimization-sense cost vector padded to the full
// column count (artificials at 0).
func (p *Problem) extractSolution(tb tabBuild, fullCosts []float64, pivots int) Solution {
	n := len(p.obj)
	t := tb.t
	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			x[b] = t.a[i][t.n]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.obj[j] * x[j]
	}

	// Row duals: y_k = c_B · B⁻¹e_k, undoing the rhs-sign normalization and
	// the minimization flip so the value is d(objective)/d(rhs_k) in the
	// problem's own direction. Only the problem's own rows get duals; the
	// internal rows lowered from variable bounds are implementation detail.
	duals := make([]float64, len(p.constraints))
	for k := range duals {
		y := 0.0
		col := tb.auxCol[k]
		for i, b := range t.basis {
			if cb := fullCosts[b]; cb != 0 {
				y += cb * t.a[i][col]
			}
		}
		if tb.kinds[k].neg {
			y = -y
		}
		if p.maximize {
			y = -y
		}
		duals[k] = y
	}
	return Solution{Status: Optimal, X: x, Objective: obj, Pivots: pivots, Duals: duals}
}

// tableau is a dense simplex tableau in canonical form: basis columns are
// unit vectors and the last column holds the (nonnegative) right-hand sides.
type tableau struct {
	m, n  int
	a     [][]float64 // m rows × (n+1) columns
	basis []int       // basis[i] = column basic in row i
}

// objective evaluates Σ c_B · b for the given cost vector.
func (t *tableau) objective(costs []float64) float64 {
	v := 0.0
	for i, b := range t.basis {
		v += costs[b] * t.a[i][t.n]
	}
	return v
}

// optimize pivots until optimality, unboundedness, or the pivot budget runs
// out. banned marks columns that may not enter (nil means none). It uses
// Dantzig's rule and falls back to Bland's rule once the iteration count
// suggests cycling.
//
// Reduced costs are kept in an explicit row updated in O(n) per pivot; it is
// rebuilt from scratch when the rule switches to Bland, bounding numerical
// drift exactly when the solve is already struggling.
func (t *tableau) optimize(costs []float64, banned func(int) bool, maxPivots int, pivots *int) Status {
	blandAfter := 20*(t.m+t.n) + 200
	iter := 0
	zrow := t.reducedCosts(costs)
	rebuilt := false
	for {
		if *pivots >= maxPivots {
			return IterLimit
		}
		useBland := iter > blandAfter
		if useBland && !rebuilt {
			zrow = t.reducedCosts(costs)
			rebuilt = true
		}
		enter := -1
		best := -zeroTol
		for j := 0; j < t.n; j++ {
			if banned != nil && banned(j) {
				continue
			}
			if t.isBasic(j) {
				continue
			}
			r := zrow[j]
			if useBland {
				if r < -zeroTol {
					enter = j
					break
				}
			} else if r < best {
				best = r
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Ratio test: min b_i / a_{i,enter} over positive entries; ties break
		// toward the smallest basis index for anti-cycling.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij <= pivotTol {
				continue
			}
			ratio := t.a[i][t.n] / aij
			if ratio < bestRatio-zeroTol ||
				(ratio < bestRatio+zeroTol && (leave < 0 || t.basis[i] < t.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
		// Eliminate the entering column from the reduced-cost row using the
		// freshly normalized pivot row.
		if f := zrow[enter]; f != 0 {
			pr := t.a[leave]
			for j := 0; j < t.n; j++ {
				zrow[j] -= f * pr[j]
			}
			zrow[enter] = 0
		}
		*pivots++
		iter++
	}
}

// reducedCosts computes c_j − c_B·T[:,j] for every column.
func (t *tableau) reducedCosts(costs []float64) []float64 {
	z := make([]float64, t.n)
	copy(z, costs[:t.n])
	for i, b := range t.basis {
		cb := costs[b]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			if a := row[j]; a != 0 {
				z[j] -= cb * a
			}
		}
	}
	return z
}

func (t *tableau) isBasic(j int) bool {
	for _, b := range t.basis {
		if b == j {
			return true
		}
	}
	return false
}

// pivot makes column col basic in row row.
func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	r := t.a[row]
	for j := range r {
		r[j] *= inv
	}
	r[col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= f * r[j]
		}
		ri[col] = 0 // exact
	}
	t.basis[row] = col
	// Clamp tiny negative RHS noise so feasibility is preserved.
	if b := t.a[row][t.n]; b < 0 && b > -1e-9 {
		t.a[row][t.n] = 0
	}
}
