package lp

import (
	"math"
	"sort"
)

// luFactor is a sparse LU factorization of the basis matrix B with partial
// pivoting, plus a product-form eta file recording the basis changes since
// the factorization was last rebuilt: B = B₀·E₁·E₂·…·E_t where B₀ = P⁻¹L·U
// (up to the column ordering chosen for fill reduction) and each E is an
// identity matrix whose column p is the FTRANed entering column ã. FTRAN and
// BTRAN apply the eta file around the triangular solves; refactorization
// collapses the file back into a fresh LU (see refactorEvery).
//
// The LU arrays are immutable after factorize, and an eta never changes once
// appended, so a node re-solve's factor (resetTo) shares the frozen root's LU
// arrays and root etas read-only and appends its own etas into its own arena.
// All dense scratch lives in the calling solver, never in the factor.
type luFactor struct {
	m int

	pivRow   []int // elimination step k → original row pivoted
	rowPos   []int // inverse permutation: original row → elimination step
	colOrder []int // elimination step k → basis position factored at step k
	diag     []float64

	// L columns in elimination order; the unit diagonal is implicit and the
	// entries sit at original row indices (rows not yet pivoted at step k).
	lColPtr []int
	lRow    []int
	lVal    []float64

	// U columns in elimination order; entries are (earlier step j, value).
	uColPtr []int
	uIdx    []int
	uVal    []float64

	etas []eta
	// etaIdx and etaVal are the arena the factor's own etas' entries live
	// in. An eta keeps its entries as subslices, so an arena that grows
	// leaves earlier etas reading the array they were written to, and etas
	// copied from another factor keep reading that factor's arena.
	etaIdx []int
	etaVal []float64
}

// eta is one product-form basis update: position p was replaced by a column
// whose FTRANed form had value diag at p and val[k] at idx[k] (≠ p).
type eta struct {
	p    int
	diag float64
	idx  []int
	val  []float64
}

// resetTo makes f the frozen factor g with an empty eta tail of its own: g's
// LU arrays and etas are shared read-only (g's eta list is copied into f's,
// so f's appends never touch g's), and f's arena is truncated. f's eta list
// and arena keep their capacity, so a reset allocates nothing once they have
// grown to fit a re-solve.
func (f *luFactor) resetTo(g *luFactor) {
	etas, idx, val := f.etas[:0], f.etaIdx[:0], f.etaVal[:0]
	*f = *g
	f.etas = append(etas, g.etas...)
	f.etaIdx, f.etaVal = idx, val
}

// factorize builds the LU of the basis columns basis[0..m-1] of pr using
// left-looking column elimination with partial pivoting and a dense work
// vector. Columns are processed in ascending-nonzero-count order, a cheap
// static fill reducer that handles the hour model's dense coupling rows
// (budget, Σλ) last. Returns ok == false when the basis is numerically
// singular.
func factorize(pr *revProblem, basis []int) (*luFactor, bool) {
	e := newElim(pr)
	f := e.f
	for k := range f.colOrder {
		f.colOrder[k] = k
	}
	sortByNNZ(pr, f.colOrder, func(k int) int { return basis[k] })
	for k := 0; k < pr.m; k++ {
		if !e.column(basis[f.colOrder[k]]) {
			return nil, false // singular basis
		}
	}
	return f, true
}

// factorizeRepair factors a crash basis with rank repair: the candidate
// columns (reordered in place) go through the same elimination as
// factorize, but a column with no usable pivot (dependent on the ones before
// it, or one too many) is dropped instead of failing the factorization, and
// the slack of every row no accepted column pivoted fills the basis up to m
// columns. The slacks factor trivially, one unit pivot each, so the repair
// costs no second factorization. The returned basis lists the columns in
// elimination order.
func factorizeRepair(pr *revProblem, cand []int) (*luFactor, []int) {
	e := newElim(pr)
	f := e.f
	sortByNNZ(pr, cand, func(j int) int { return j })
	basis := make([]int, 0, pr.m)
	for _, j := range cand {
		if len(basis) == pr.m {
			break
		}
		if e.column(j) {
			basis = append(basis, j)
		}
	}
	for i := 0; i < pr.m && len(basis) < pr.m; i++ {
		if f.rowPos[i] < 0 {
			e.column(pr.n + i) // e_i on an uncovered row: a unit pivot
			basis = append(basis, pr.n+i)
		}
	}
	for k := range f.colOrder {
		f.colOrder[k] = k
	}
	return f, basis
}

// sortByNNZ orders items by the nonzero count of their column col(item),
// keeping the given order among equal counts.
func sortByNNZ(pr *revProblem, items []int, col func(int) int) {
	sort.SliceStable(items, func(a, b int) bool {
		return pr.colNNZ(col(items[a])) < pr.colNNZ(col(items[b]))
	})
}

// elim is the working state of one left-looking factorization: the factor
// built so far and the dense scratch of the column being eliminated.
type elim struct {
	pr      *revProblem
	f       *luFactor
	work    []float64
	seen    []bool
	touched []int
}

func newElim(pr *revProblem) *elim {
	m := pr.m
	f := &luFactor{
		m:        m,
		pivRow:   make([]int, m),
		rowPos:   make([]int, m),
		colOrder: make([]int, m),
		diag:     make([]float64, m),
		lColPtr:  make([]int, 1, m+1),
		uColPtr:  make([]int, 1, m+1),
	}
	for i := range f.rowPos {
		f.rowPos[i] = -1
	}
	return &elim{pr: pr, f: f, work: make([]float64, m), seen: make([]bool, m), touched: make([]int, 0, m)}
}

func (e *elim) touch(i int) {
	if !e.seen[i] {
		e.seen[i] = true
		e.touched = append(e.touched, i)
	}
}

// column eliminates column j as the next step. It reports false, leaving
// the factor as it was, when no unpivoted row holds a usable pivot.
func (e *elim) column(j int) bool {
	f, work := e.f, e.work
	k := len(f.uColPtr) - 1
	uMark := len(f.uIdx)
	e.pr.colEach(j, func(i int, v float64) {
		e.touch(i)
		work[i] = v
	})
	// Left-looking elimination: for each earlier pivot in order, the value
	// sitting in its pivot row is this column's U entry; eliminate it
	// through that pivot's L column.
	for s := 0; s < k; s++ {
		xs := work[f.pivRow[s]]
		if xs == 0 {
			continue
		}
		f.uIdx = append(f.uIdx, s)
		f.uVal = append(f.uVal, xs)
		for q := f.lColPtr[s]; q < f.lColPtr[s+1]; q++ {
			i := f.lRow[q]
			e.touch(i)
			work[i] -= f.lVal[q] * xs
		}
	}

	pivot, best := -1, 0.0
	for _, i := range e.touched {
		if f.rowPos[i] >= 0 {
			continue
		}
		if a := math.Abs(work[i]); a > best {
			best, pivot = a, i
		}
	}
	ok := pivot >= 0 && best >= 1e-10
	if ok {
		f.uColPtr = append(f.uColPtr, len(f.uIdx))
		f.pivRow[k] = pivot
		f.rowPos[pivot] = k
		f.diag[k] = work[pivot]
		inv := 1 / work[pivot]
		for _, i := range e.touched {
			if f.rowPos[i] >= 0 {
				continue
			}
			if v := work[i]; v != 0 {
				f.lRow = append(f.lRow, i)
				f.lVal = append(f.lVal, v*inv)
			}
		}
		f.lColPtr = append(f.lColPtr, len(f.lRow))
	} else {
		f.uIdx, f.uVal = f.uIdx[:uMark], f.uVal[:uMark]
	}
	for _, i := range e.touched {
		work[i] = 0
		e.seen[i] = false
	}
	e.touched = e.touched[:0]
	return ok
}

// ftran solves B z = x in place: x arrives as a dense row-space vector and
// leaves as the dense basis-position-space solution. w is caller scratch of
// length m.
func (f *luFactor) ftran(x, w []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		xk := x[f.pivRow[k]]
		if xk != 0 {
			for e := f.lColPtr[k]; e < f.lColPtr[k+1]; e++ {
				x[f.lRow[e]] -= f.lVal[e] * xk
			}
		}
		w[k] = xk
	}
	for k := m - 1; k >= 0; k-- {
		zk := w[k]
		if zk != 0 {
			zk /= f.diag[k]
			for e := f.uColPtr[k]; e < f.uColPtr[k+1]; e++ {
				w[f.uIdx[e]] -= f.uVal[e] * zk
			}
		}
		w[k] = zk
	}
	for k := 0; k < m; k++ {
		x[f.colOrder[k]] = w[k]
	}
	// Eta file: B = B₀E₁…E_t, so B⁻¹ applies the eta inverses in order after
	// the LU solve. Solving E u = z: u_p = z_p/ã_p, u_i = z_i − ã_i·u_p.
	for t := range f.etas {
		e := &f.etas[t]
		u := x[e.p] / e.diag
		if u != 0 {
			for k, i := range e.idx {
				x[i] -= e.val[k] * u
			}
		}
		x[e.p] = u
	}
}

// btran solves Bᵀ y = c in place: c arrives as a dense basis-position-space
// vector and leaves as the dense row-space solution. w is caller scratch of
// length m.
func (f *luFactor) btran(c, w []float64) {
	// Eta transposes peel off in reverse order: solving Eᵀu = c leaves all
	// entries but p unchanged and u_p = (c_p − Σ_{i≠p} ã_i·c_i)/ã_p.
	for t := len(f.etas) - 1; t >= 0; t-- {
		e := &f.etas[t]
		acc := c[e.p]
		for k, i := range e.idx {
			acc -= e.val[k] * c[i]
		}
		c[e.p] = acc / e.diag
	}
	m := f.m
	// Uᵀ g = c′ with c′[k] = c[colOrder[k]]: forward gather.
	for k := 0; k < m; k++ {
		acc := c[f.colOrder[k]]
		for e := f.uColPtr[k]; e < f.uColPtr[k+1]; e++ {
			acc -= f.uVal[e] * w[f.uIdx[e]]
		}
		w[k] = acc / f.diag[k]
	}
	// Lᵀ h = g: backward gather (L entries reference rows pivoted later, so
	// their elimination positions are already final).
	for k := m - 1; k >= 0; k-- {
		acc := w[k]
		for e := f.lColPtr[k]; e < f.lColPtr[k+1]; e++ {
			acc -= f.lVal[e] * w[f.rowPos[f.lRow[e]]]
		}
		w[k] = acc
	}
	for k := 0; k < m; k++ {
		c[f.pivRow[k]] = w[k]
	}
}

// update appends the product-form eta for replacing basis position p with a
// column whose FTRANed form is the dense position-space vector abar. Its
// entries go to the end of the factor's arena.
func (f *luFactor) update(p int, abar []float64) {
	start := len(f.etaIdx)
	for i, v := range abar {
		if i != p && math.Abs(v) > 1e-12 {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, v)
		}
	}
	end := len(f.etaIdx)
	f.etas = append(f.etas, eta{p: p, diag: abar[p], idx: f.etaIdx[start:end:end], val: f.etaVal[start:end:end]})
}
