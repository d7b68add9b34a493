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
// The LU arrays are immutable after factorize, so every warm re-solve from a
// frozen root can share one factor as long as it takes the eta slice with a
// clamped capacity (clone) so its appends reallocate instead of aliasing. All
// dense scratch lives in the calling solver, never in the factor.
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
}

// eta is one product-form basis update: position p was replaced by a column
// whose FTRANed form had value diag at p and val[k] at idx[k] (≠ p).
type eta struct {
	p    int
	diag float64
	idx  []int
	val  []float64
}

// clone shares the immutable LU arrays but clamps the eta slice's capacity so
// the clone's appends always reallocate. Cheap enough to run per B&B node.
func (f *luFactor) clone() *luFactor {
	g := *f
	g.etas = f.etas[:len(f.etas):len(f.etas)]
	return &g
}

// factorize builds the LU of the basis columns basis[0..m-1] of pr using
// left-looking column elimination with partial pivoting and a dense work
// vector. Columns are processed in ascending-nonzero-count order, a cheap
// static fill reducer that handles the hour model's dense coupling rows
// (budget, Σλ) last. Returns ok == false when the basis is numerically
// singular.
func factorize(pr *revProblem, basis []int) (*luFactor, bool) {
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
	for k := range f.colOrder {
		f.colOrder[k] = k
	}
	sort.SliceStable(f.colOrder, func(a, b int) bool {
		na, nb := pr.colNNZ(basis[f.colOrder[a]]), pr.colNNZ(basis[f.colOrder[b]])
		if na != nb {
			return na < nb
		}
		return f.colOrder[a] < f.colOrder[b]
	})

	work := make([]float64, m)
	seen := make([]bool, m)
	touched := make([]int, 0, m)
	touch := func(i int) {
		if !seen[i] {
			seen[i] = true
			touched = append(touched, i)
		}
	}

	for k := 0; k < m; k++ {
		pr.colEach(basis[f.colOrder[k]], func(i int, v float64) {
			touch(i)
			work[i] = v
		})
		// Left-looking elimination: for each earlier pivot in order, the
		// value sitting in its pivot row is this column's U entry; eliminate
		// it through that pivot's L column.
		for j := 0; j < k; j++ {
			xj := work[f.pivRow[j]]
			if xj == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, j)
			f.uVal = append(f.uVal, xj)
			for e := f.lColPtr[j]; e < f.lColPtr[j+1]; e++ {
				i := f.lRow[e]
				touch(i)
				work[i] -= f.lVal[e] * xj
			}
		}
		f.uColPtr = append(f.uColPtr, len(f.uIdx))

		pivot, best := -1, 0.0
		for _, i := range touched {
			if f.rowPos[i] >= 0 {
				continue
			}
			if a := math.Abs(work[i]); a > best {
				best, pivot = a, i
			}
		}
		if pivot < 0 || best < 1e-10 {
			return nil, false // singular basis
		}
		f.pivRow[k] = pivot
		f.rowPos[pivot] = k
		f.diag[k] = work[pivot]
		inv := 1 / work[pivot]
		for _, i := range touched {
			if f.rowPos[i] >= 0 {
				continue
			}
			if v := work[i]; v != 0 {
				f.lRow = append(f.lRow, i)
				f.lVal = append(f.lVal, v*inv)
			}
		}
		f.lColPtr = append(f.lColPtr, len(f.lRow))
		for _, i := range touched {
			work[i] = 0
			seen[i] = false
		}
		touched = touched[:0]
	}
	return f, true
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
// column whose FTRANed form is the dense position-space vector abar.
func (f *luFactor) update(p int, abar []float64) {
	e := eta{p: p, diag: abar[p]}
	for i, v := range abar {
		if i != p && math.Abs(v) > 1e-12 {
			e.idx = append(e.idx, i)
			e.val = append(e.val, v)
		}
	}
	f.etas = append(f.etas, e)
}
