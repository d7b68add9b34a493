package lp

import "math"

// revProblem is the equality-form instance the sparse revised simplex works
// on:
//
//	A x + I s (+ artificials) = b,   lo ≤ (x, s) ≤ hi
//
// Structural columns are 0..n-1, the slack of row i is column n+i, and
// phase-1 artificials (added lazily, one per initially infeasible row) follow
// at n+m+... Slack bounds encode the row relation: LE → [0, +Inf), GE →
// (−Inf, 0], EQ → [0, 0]. Right-hand sides keep their original sign — no
// rhs ≥ 0 normalization is needed in equality form, which is also why the
// row duals y = c_B·B⁻¹ come out in the problem's own row orientation with
// no per-row sign fixups.
type revProblem struct {
	m, n int // constraint rows, structural columns

	// A stored both ways: CSC drives column solves (FTRAN scatter, pricing
	// by column), CSR drives the pivot-row computation α_N = ρᵀA_N.
	colPtr []int
	rowIdx []int
	colVal []float64
	rowPtr []int
	colIdx []int
	rowVal []float64

	b     []float64 // row right-hand sides, original sign
	costs []float64 // minimization-sense costs: structural, then slacks (0)

	// Bounds per column; artificials appended during phase 1. Capacity is
	// reserved for n+2m entries so appends never reallocate mid-solve.
	lo, hi []float64

	nart   int       // artificial columns in use
	artRow []int     // artificial a → its row
	artSig []float64 // artificial a → its coefficient (±1)

	maximize bool
}

// newRevProblem lowers a Problem into equality form.
func newRevProblem(p *Problem) *revProblem {
	n := len(p.obj)
	m := len(p.constraints)
	pr := &revProblem{m: m, n: n, maximize: p.maximize}

	nnz := 0
	for _, c := range p.constraints {
		for _, t := range c.Terms {
			if t.Coef != 0 {
				nnz++
			}
		}
	}
	pr.rowPtr = make([]int, m+1)
	pr.colIdx = make([]int, 0, nnz)
	pr.rowVal = make([]float64, 0, nnz)
	colCount := make([]int, n+1)
	pr.b = make([]float64, m)
	for k, c := range p.constraints {
		pr.b[k] = c.RHS
		for _, t := range c.Terms {
			if t.Coef != 0 {
				pr.colIdx = append(pr.colIdx, t.Var)
				pr.rowVal = append(pr.rowVal, t.Coef)
				colCount[t.Var+1]++
			}
		}
		pr.rowPtr[k+1] = len(pr.colIdx)
	}

	// CSC from the CSR pass: prefix-sum column counts, then scatter.
	pr.colPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		pr.colPtr[j+1] = pr.colPtr[j] + colCount[j+1]
	}
	pr.rowIdx = make([]int, nnz)
	pr.colVal = make([]float64, nnz)
	next := append([]int(nil), pr.colPtr[:n]...)
	for i := 0; i < m; i++ {
		for e := pr.rowPtr[i]; e < pr.rowPtr[i+1]; e++ {
			j := pr.colIdx[e]
			pr.rowIdx[next[j]] = i
			pr.colVal[next[j]] = pr.rowVal[e]
			next[j]++
		}
	}

	pr.costs = make([]float64, n+m)
	for j, c := range p.obj {
		if p.maximize {
			c = -c
		}
		pr.costs[j] = c
	}

	pr.lo = make([]float64, n+m, n+2*m)
	pr.hi = make([]float64, n+m, n+2*m)
	for j := 0; j < n; j++ {
		pr.lo[j], pr.hi[j] = p.lower[j], p.upper[j]
	}
	for i, c := range p.constraints {
		switch c.Rel {
		case LE:
			pr.lo[n+i], pr.hi[n+i] = 0, math.Inf(1)
		case GE:
			pr.lo[n+i], pr.hi[n+i] = math.Inf(-1), 0
		case EQ:
			pr.lo[n+i], pr.hi[n+i] = 0, 0
		}
	}
	return pr
}

// nTot is the current total column count (structurals + slacks + artificials).
func (pr *revProblem) nTot() int { return pr.n + pr.m + pr.nart }

// cost returns the minimization-sense objective coefficient of column j under
// the given phase (phase 1 prices only the artificials).
func (pr *revProblem) cost(j int, phase1 bool) float64 {
	if phase1 {
		if j >= pr.n+pr.m {
			return 1
		}
		return 0
	}
	if j < pr.n+pr.m {
		return pr.costs[j]
	}
	return 0
}

// colEach visits the nonzeros of column j (structural, slack, or artificial).
func (pr *revProblem) colEach(j int, fn func(row int, v float64)) {
	switch {
	case j < pr.n:
		for e := pr.colPtr[j]; e < pr.colPtr[j+1]; e++ {
			fn(pr.rowIdx[e], pr.colVal[e])
		}
	case j < pr.n+pr.m:
		fn(j-pr.n, 1)
	default:
		a := j - pr.n - pr.m
		fn(pr.artRow[a], pr.artSig[a])
	}
}

// colNNZ returns the nonzero count of column j (fill-reduction heuristic).
func (pr *revProblem) colNNZ(j int) int {
	if j < pr.n {
		return pr.colPtr[j+1] - pr.colPtr[j]
	}
	return 1
}

// dotCol returns yᵀA_j for a dense row-space vector y.
func (pr *revProblem) dotCol(y []float64, j int) float64 {
	switch {
	case j < pr.n:
		acc := 0.0
		for e := pr.colPtr[j]; e < pr.colPtr[j+1]; e++ {
			acc += y[pr.rowIdx[e]] * pr.colVal[e]
		}
		return acc
	case j < pr.n+pr.m:
		return y[j-pr.n]
	default:
		a := j - pr.n - pr.m
		return pr.artSig[a] * y[pr.artRow[a]]
	}
}

// addArtificial appends an artificial column with a single ±1 entry in the
// given row and bounds [0, +Inf), returning its column index.
func (pr *revProblem) addArtificial(row int, sig float64) int {
	pr.artRow = append(pr.artRow, row)
	pr.artSig = append(pr.artSig, sig)
	pr.lo = append(pr.lo, 0)
	pr.hi = append(pr.hi, math.Inf(1))
	pr.nart++
	return pr.n + pr.m + pr.nart - 1
}
