package lp

import (
	"math"
	"math/bits"
)

// refactorEvery bounds the eta file: once this many product-form updates
// accumulate, the basis is refactorized from scratch and the primal values
// and reduced costs are recomputed, washing out drift. A variable, so a test
// can force a refactorization inside a short re-solve.
var refactorEvery = 64

// weakPivot is the magnitude below which a pivot element is mistrusted: the
// solver refactorizes and retries, and only if the element stays weak does it
// exclude the column (primal) or give up to the fallback (dual).
const weakPivot = 1e-7

// Nonbasic/basic column statuses of the bounded revised simplex.
const (
	atLower int8 = iota // nonbasic at its (finite) lower bound
	atUpper             // nonbasic at its (finite) upper bound
	isBasic
)

// revSolver is the state of one sparse revised-simplex solve: the basis and
// its LU factor, primal values of the basic columns, reduced costs, and the
// Devex reference weights. After an optimal solve the state is frozen inside
// a WarmStart; each ReSolve copies it into the warm start's node workspace
// (resetFrom) and mutates only the workspace.
type revSolver struct {
	pr     *revProblem
	f      *luFactor
	basis  []int  // basis position → column
	inBase []int  // column → basis position, or -1
	status []int8 // column → atLower / atUpper / isBasic
	xB     []float64
	d      []float64 // reduced costs (minimization sense of the current phase)
	w      []float64 // Devex reference weights
	y      []float64 // row duals, valid after computeDuals
	phase1 bool

	colBuf []float64 // dense m scratch: entering column / right-hand side
	rhoBuf []float64 // dense m scratch: BTRAN unit vector → pivot row ρ
	luBuf  []float64 // dense m scratch for the triangular solves
	alpha  []float64 // dense column-space scratch: pivot row over all columns
	mark   []uint64  // bitset of the columns pivotRow set in alpha

	pivots    int
	maxPivots int
	refactors int
	updates   int

	degen int  // consecutive degenerate steps (stall counter)
	bland bool // Bland's-rule fallback engaged by the stall counter
	skip  map[int]bool

	failed bool // singular refactorization: abort to the dense tableau
}

func newRevSolver(pr *revProblem, opt Options) *revSolver {
	capc := pr.n + 2*pr.m + 1
	s := &revSolver{pr: pr}
	s.basis = make([]int, pr.m)
	s.inBase = make([]int, capc)
	for j := range s.inBase {
		s.inBase[j] = -1
	}
	s.status = make([]int8, pr.nTot(), capc)
	s.d = make([]float64, pr.nTot(), capc)
	s.w = make([]float64, pr.nTot(), capc)
	for j := range s.w {
		s.w[j] = 1
	}
	s.alpha = make([]float64, capc)
	s.mark = make([]uint64, (capc+63)/64)
	s.xB = make([]float64, pr.m)
	s.y = make([]float64, pr.m)
	s.colBuf = make([]float64, pr.m)
	s.rhoBuf = make([]float64, pr.m)
	s.luBuf = make([]float64, pr.m)
	s.maxPivots = opt.MaxPivots
	if s.maxPivots == 0 {
		s.maxPivots = 200*(pr.m+pr.nTot()) + 5000
	}
	return s
}

// growCols extends the per-column arrays after artificials were appended.
func (s *revSolver) growCols() {
	for len(s.status) < s.pr.nTot() {
		s.status = append(s.status, atLower)
		s.d = append(s.d, 0)
		s.w = append(s.w, 1)
	}
}

// value returns the current value of a nonbasic column: the bound its status
// pins it to (always finite by the solver's invariants).
func (s *revSolver) value(j int) float64 {
	if s.status[j] == atUpper {
		return s.pr.hi[j]
	}
	return s.pr.lo[j]
}

// computeXB solves B·x_B = b − A_N·x_N for the basic values.
func (s *revSolver) computeXB() {
	pr := s.pr
	copy(s.colBuf, pr.b)
	for j := 0; j < pr.nTot(); j++ {
		if s.status[j] == isBasic {
			continue
		}
		v := s.value(j)
		if v == 0 {
			continue
		}
		pr.colEach(j, func(i int, a float64) { s.colBuf[i] -= a * v })
	}
	s.f.ftran(s.colBuf, s.luBuf)
	copy(s.xB, s.colBuf)
}

// computeDuals recomputes y = B⁻ᵀc_B and the reduced costs of every column
// from scratch for the current phase's costs.
func (s *revSolver) computeDuals() {
	pr := s.pr
	for i := 0; i < pr.m; i++ {
		s.rhoBuf[i] = pr.cost(s.basis[i], s.phase1)
	}
	s.f.btran(s.rhoBuf, s.luBuf)
	copy(s.y, s.rhoBuf[:pr.m])
	for j := 0; j < pr.nTot(); j++ {
		if s.status[j] == isBasic {
			s.d[j] = 0
			continue
		}
		s.d[j] = pr.cost(j, s.phase1) - pr.dotCol(s.y, j)
	}
}

func (s *revSolver) resetDevex() {
	for j := range s.w {
		s.w[j] = 1
	}
}

// refactorize rebuilds the LU from the current basis, drops the eta file, and
// recomputes primal values and reduced costs. Returns false (and marks the
// solver failed) if the basis has gone numerically singular.
func (s *revSolver) refactorize() bool {
	f, ok := factorize(s.pr, s.basis)
	if !ok {
		s.failed = true
		return false
	}
	s.f = f
	s.refactors++
	s.computeXB()
	s.computeDuals()
	return true
}

// pivotRow fills s.alpha with α_N = (e_pᵀB⁻¹)·A over every column, using the
// CSR rows scattered by the nonzeros of ρ = B⁻ᵀe_p. It marks each column it
// sets in s.mark and leaves every other entry zero, so the loops over the
// pivot row walk only the marked columns, in the ascending order a walk over
// every column takes: ties break as they would there.
func (s *revSolver) pivotRow(p int) {
	pr := s.pr
	for k, word := range s.mark {
		for ; word != 0; word &= word - 1 {
			s.alpha[k<<6|bits.TrailingZeros64(word)] = 0
		}
		s.mark[k] = 0
	}
	for i := range s.rhoBuf[:pr.m] {
		s.rhoBuf[i] = 0
	}
	s.rhoBuf[p] = 1
	s.f.btran(s.rhoBuf, s.luBuf)
	for i := 0; i < pr.m; i++ {
		ri := s.rhoBuf[i]
		if math.Abs(ri) < 1e-12 {
			continue
		}
		for e := pr.rowPtr[i]; e < pr.rowPtr[i+1]; e++ {
			j := pr.colIdx[e]
			s.alpha[j] += ri * pr.rowVal[e]
			s.mark[j>>6] |= 1 << (uint(j) & 63)
		}
		j := pr.n + i
		s.alpha[j] += ri
		s.mark[j>>6] |= 1 << (uint(j) & 63)
	}
	for a := 0; a < pr.nart; a++ {
		j := pr.n + pr.m + a
		s.alpha[j] = pr.artSig[a] * s.rhoBuf[pr.artRow[a]]
		s.mark[j>>6] |= 1 << (uint(j) & 63)
	}
}

// price selects the entering column: Devex rule (max d²/w over eligible
// columns), or lowest-index eligible once the stall counter has engaged
// Bland's rule. Returns -1 when no column is eligible (optimal).
func (s *revSolver) price() int {
	pr := s.pr
	best, bestScore := -1, 0.0
	for j := 0; j < pr.nTot(); j++ {
		st := s.status[j]
		if st == isBasic || pr.lo[j] == pr.hi[j] || (s.skip != nil && s.skip[j]) {
			continue
		}
		dj := s.d[j]
		if st == atLower {
			if dj >= -zeroTol {
				continue
			}
		} else if dj <= zeroTol {
			continue
		}
		if s.bland {
			return j
		}
		if score := dj * dj / s.w[j]; score > bestScore {
			bestScore, best = score, j
		}
	}
	return best
}

// primal runs the bounded-variable primal simplex to optimality.
func (s *revSolver) primal() Status {
	pr := s.pr
	m := pr.m
	stallAfter := 100 + m
	refreshedAt := -1 // pivot count at the last skip refresh
	for {
		if s.failed || s.pivots >= s.maxPivots {
			return IterLimit
		}
		q := s.price()
		if q < 0 {
			if len(s.skip) > 0 {
				// Columns were excluded after weak pivots; refresh the
				// factorization and re-price before declaring optimality.
				// A refresh with no pivot since the last one would price
				// the same weak columns again forever: the pivot stays
				// weak, as the dual simplex reports it.
				if s.pivots == refreshedAt {
					return IterLimit
				}
				refreshedAt = s.pivots
				s.skip = nil
				if !s.refactorize() {
					return IterLimit
				}
				continue
			}
			return Optimal
		}

		for i := range s.colBuf[:m] {
			s.colBuf[i] = 0
		}
		pr.colEach(q, func(i int, v float64) { s.colBuf[i] = v })
		s.f.ftran(s.colBuf, s.luBuf)
		abar := s.colBuf

		delta := 1.0
		if s.status[q] == atUpper {
			delta = -1
		}

		// Bounded ratio test: the entering column's own opposite bound
		// competes with every basic column hitting one of its bounds. Ties
		// break toward the largest pivot magnitude for stability.
		t := pr.hi[q] - pr.lo[q]
		leave, leaveUpper, bestA := -1, false, 0.0
		for i := 0; i < m; i++ {
			a := delta * abar[i]
			bc := s.basis[i]
			var ti float64
			var toUpper bool
			if a > pivotTol {
				l := pr.lo[bc]
				if math.IsInf(l, -1) {
					continue
				}
				ti = (s.xB[i] - l) / a
			} else if a < -pivotTol {
				h := pr.hi[bc]
				if math.IsInf(h, 1) {
					continue
				}
				ti = (s.xB[i] - h) / a
				toUpper = true
			} else {
				continue
			}
			if ti < 0 {
				ti = 0
			}
			aa := math.Abs(a)
			if ti < t-zeroTol || (ti < t+zeroTol && leave >= 0 && aa > bestA) {
				t, leave, leaveUpper, bestA = ti, i, toUpper, aa
			}
		}
		if math.IsInf(t, 1) {
			return Unbounded
		}

		// Stall guard: long runs of degenerate steps trip Bland's rule (with
		// exact reduced costs) until a real step is taken again.
		if t <= zeroTol {
			s.degen++
			if s.degen > stallAfter && !s.bland {
				s.bland = true
				s.computeDuals()
			}
		} else {
			s.degen = 0
			s.bland = false
		}

		if leave < 0 {
			// Bound flip: the entering column crosses to its other bound
			// before any basic column blocks. No basis change, no eta.
			for i := 0; i < m; i++ {
				if abar[i] != 0 {
					s.xB[i] -= delta * abar[i] * t
				}
			}
			if s.status[q] == atLower {
				s.status[q] = atUpper
			} else {
				s.status[q] = atLower
			}
			s.pivots++
			s.skip = nil
			continue
		}
		if math.Abs(abar[leave]) < weakPivot {
			if len(s.f.etas) > 0 {
				if !s.refactorize() {
					return IterLimit
				}
			} else {
				if s.skip == nil {
					s.skip = make(map[int]bool)
				}
				s.skip[q] = true
			}
			continue
		}
		s.pivotStep(q, leave, delta, t, leaveUpper)
		if s.failed {
			return IterLimit
		}
		s.skip = nil
	}
}

// pivotStep performs the basis exchange at step length t: position p's column
// leaves to the bound it hit, q enters, and the reduced costs, Devex weights,
// and LU eta file are updated. s.colBuf must hold ã = B⁻¹A_q.
func (s *revSolver) pivotStep(q, p int, delta, t float64, leaveUpper bool) {
	m := s.pr.m
	abar := s.colBuf

	// Pivot row against the pre-update basis (the BTRAN must see the old B).
	s.pivotRow(p)
	alphaQ := abar[p]

	vq := s.value(q) + delta*t
	for i := 0; i < m; i++ {
		if abar[i] != 0 {
			s.xB[i] -= delta * abar[i] * t
		}
	}
	r := s.basis[p]
	if leaveUpper {
		s.status[r] = atUpper
	} else {
		s.status[r] = atLower
	}
	s.inBase[r] = -1
	s.basis[p] = q
	s.inBase[q] = p
	s.status[q] = isBasic
	s.xB[p] = vq

	// d_j ← d_j − (d_q/α_q)·α_j; the leaving column lands at −d_q/α_q
	// exactly (its α is 1 in the pre-pivot basis). The same loop folds in
	// the Devex reference-weight update.
	dq := s.d[q]
	ratio := dq / alphaQ
	wq := s.w[q]
	maxW := 1.0
	for k, word := range s.mark {
		for ; word != 0; word &= word - 1 {
			j := k<<6 | bits.TrailingZeros64(word)
			if s.status[j] == isBasic || j == r {
				continue
			}
			aj := s.alpha[j]
			if aj == 0 {
				continue
			}
			s.d[j] -= ratio * aj
			az := aj / alphaQ
			if cand := az * az * wq; cand > s.w[j] {
				s.w[j] = cand
			}
			if s.w[j] > maxW {
				maxW = s.w[j]
			}
		}
	}
	s.d[q] = 0
	s.d[r] = -ratio
	if wr := wq / (alphaQ * alphaQ); wr > 1 {
		s.w[r] = wr
	} else {
		s.w[r] = 1
	}
	if maxW > 1e7 {
		s.resetDevex() // start a fresh Devex reference framework
	}

	s.f.update(p, abar[:m])
	s.updates++
	s.pivots++
	if len(s.f.etas) >= refactorEvery {
		s.refactorize()
	}
}

// dual runs the bounded-variable dual simplex: while some basic column
// violates a bound, exchange it against the entering column chosen by the
// dual ratio test. Used by the crash path and by warm ReSolves, whose bound
// tightenings preserve dual feasibility.
func (s *revSolver) dual() Status {
	pr := s.pr
	m := pr.m
	for {
		if s.failed || s.pivots >= s.maxPivots {
			return IterLimit
		}
		p, below, worst := -1, false, zeroTol
		for i := 0; i < m; i++ {
			bc := s.basis[i]
			if v := pr.lo[bc] - s.xB[i]; v > worst {
				worst, p, below = v, i, true
			}
			if v := s.xB[i] - pr.hi[bc]; v > worst {
				worst, p, below = v, i, false
			}
		}
		if p < 0 {
			return Optimal
		}
		s.pivotRow(p)

		enter, bestRatio, bestA := -1, math.Inf(1), 0.0
		for k, word := range s.mark {
			for ; word != 0; word &= word - 1 {
				j := k<<6 | bits.TrailingZeros64(word)
				st := s.status[j]
				if st == isBasic || pr.lo[j] == pr.hi[j] {
					continue
				}
				a := s.alpha[j]
				aa := math.Abs(a)
				if aa <= pivotTol {
					continue
				}
				var elig bool
				if st == atLower {
					elig = (below && a < 0) || (!below && a > 0)
				} else {
					elig = (below && a > 0) || (!below && a < 0)
				}
				if !elig {
					continue
				}
				dj := s.d[j]
				// Clamp dual-feasibility noise so the ratio stays nonnegative.
				if st == atLower {
					if dj < 0 {
						dj = 0
					}
				} else if dj > 0 {
					dj = 0
				}
				ratio := math.Abs(dj) / aa
				if ratio < bestRatio-zeroTol || (ratio < bestRatio+zeroTol && aa > bestA) {
					bestRatio, enter, bestA = ratio, j, aa
				}
			}
		}
		if enter < 0 {
			return Infeasible
		}

		for i := range s.colBuf[:m] {
			s.colBuf[i] = 0
		}
		pr.colEach(enter, func(i int, v float64) { s.colBuf[i] = v })
		s.f.ftran(s.colBuf, s.luBuf)
		abar := s.colBuf
		alphaQ := abar[p]
		if math.Abs(alphaQ) < weakPivot {
			if len(s.f.etas) > 0 {
				if !s.refactorize() {
					return IterLimit
				}
				continue
			}
			return IterLimit // persistently weak pivot: take the cold fallback
		}

		bc := s.basis[p]
		target := pr.hi[bc]
		if below {
			target = pr.lo[bc]
		}
		step := (s.xB[p] - target) / alphaQ
		vq := s.value(enter) + step
		for i := 0; i < m; i++ {
			if abar[i] != 0 {
				s.xB[i] -= step * abar[i]
			}
		}
		if below {
			s.status[bc] = atLower
		} else {
			s.status[bc] = atUpper
		}
		s.inBase[bc] = -1
		s.basis[p] = enter
		s.inBase[enter] = p
		s.status[enter] = isBasic
		s.xB[p] = vq

		dq := s.d[enter]
		ratio := dq / alphaQ
		for k, word := range s.mark {
			for ; word != 0; word &= word - 1 {
				j := k<<6 | bits.TrailingZeros64(word)
				if s.status[j] == isBasic || j == bc {
					continue
				}
				if aj := s.alpha[j]; aj != 0 {
					s.d[j] -= ratio * aj
				}
			}
		}
		s.d[enter] = 0
		s.d[bc] = -ratio

		s.f.update(p, abar[:m])
		s.updates++
		s.pivots++
		if len(s.f.etas) >= refactorEvery {
			s.refactorize()
		}
	}
}

// coldSolve runs the two-phase solve from the all-slack basis: phase 1
// minimizes the sum of artificials covering the initially infeasible rows,
// then phase 2 minimizes the real costs with the artificials fixed at zero.
func (s *revSolver) coldSolve() Status {
	pr := s.pr
	m, n := pr.m, pr.n
	for j := 0; j < n; j++ {
		s.status[j] = atLower
	}
	for i := 0; i < m; i++ {
		sl := n + i
		s.basis[i] = sl
		s.inBase[sl] = i
		s.status[sl] = isBasic
	}
	var ok bool
	if s.f, ok = factorize(pr, s.basis); !ok {
		s.failed = true
		return IterLimit
	}
	s.computeXB()

	art := false
	for i := 0; i < m; i++ {
		sl := n + i
		v := s.xB[i]
		if v >= pr.lo[sl]-1e-9 && v <= pr.hi[sl]+1e-9 {
			continue
		}
		// Row i starts infeasible: its slack goes nonbasic at 0 (every slack
		// bound kind contains 0 as the nearest-feasible clamp) and an
		// artificial with value |v| takes its basis position.
		sig := 1.0
		if v < 0 {
			sig = -1
		}
		ac := pr.addArtificial(i, sig)
		s.growCols()
		if pr.lo[sl] == 0 {
			s.status[sl] = atLower
		} else {
			s.status[sl] = atUpper
		}
		s.inBase[sl] = -1
		s.basis[i] = ac
		s.inBase[ac] = i
		s.status[ac] = isBasic
		s.xB[i] = sig * v
		art = true
	}

	if art {
		if s.f, ok = factorize(pr, s.basis); !ok {
			s.failed = true
			return IterLimit
		}
		s.phase1 = true
		s.computeDuals()
		s.resetDevex()
		st := s.primal()
		if st == IterLimit || s.failed {
			return IterLimit
		}
		infeas := 0.0
		for i := 0; i < m; i++ {
			if s.basis[i] >= n+m {
				infeas += s.xB[i]
			}
		}
		if st == Unbounded || infeas > 1e-7 {
			return Infeasible
		}
		s.driveOut(func(col int) bool { return col >= n+m })
		if s.failed {
			return IterLimit
		}
		// Fix every artificial at zero so phase 2 cannot move them.
		for a := 0; a < pr.nart; a++ {
			pr.lo[n+m+a], pr.hi[n+m+a] = 0, 0
		}
		s.phase1 = false
	}

	s.computeDuals()
	s.resetDevex()
	s.bland, s.degen = false, 0
	st := s.primal()
	if st == Optimal && !s.failed {
		// Degenerate EQ rows can finish with their fixed slack still basic,
		// which pins that row's dual at 0. Eject fixed columns and re-polish
		// (degenerate pivots only — the point is already optimal) so the
		// duals come from a basis of marginal activities, like the dense
		// tableau's.
		if s.driveOut(func(col int) bool { return pr.lo[col] == pr.hi[col] }) && !s.failed {
			s.computeDuals()
			st = s.primal()
		}
	}
	return st
}

// driveOut pivots zero-step basic columns selected by target out of the
// basis wherever a usable non-fixed structural or slack column exists,
// reporting whether any swap happened. Phase 1 uses it to eject artificials;
// the post-optimal pass uses it to eject fixed columns (EQ slacks, leftover
// artificials), matching the dense tableau's artificial elimination so that
// degenerate duals reflect marginal activity — the convention the power-grid
// LMPs and the paper-hour budget shadow price rely on. Columns covering
// genuinely redundant rows stay basic at zero (their row blocks nothing).
func (s *revSolver) driveOut(target func(col int) bool) bool {
	pr := s.pr
	m, n := pr.m, pr.n
	swapped := false
	for pos := 0; pos < m; pos++ {
		if !target(s.basis[pos]) {
			continue
		}
		s.pivotRow(pos)
		bestJ, bestA := -1, 1e-7
		for k, word := range s.mark {
			for ; word != 0; word &= word - 1 {
				j := k<<6 | bits.TrailingZeros64(word)
				if j >= n+m || s.status[j] == isBasic || pr.lo[j] == pr.hi[j] {
					continue
				}
				if a := math.Abs(s.alpha[j]); a > bestA {
					bestA, bestJ = a, j
				}
			}
		}
		if bestJ < 0 {
			continue
		}
		for i := range s.colBuf[:m] {
			s.colBuf[i] = 0
		}
		pr.colEach(bestJ, func(i int, v float64) { s.colBuf[i] = v })
		s.f.ftran(s.colBuf, s.luBuf)
		if math.Abs(s.colBuf[pos]) < 1e-7 {
			continue
		}
		// Degenerate swap: the artificial leaves at 0, the entering column
		// keeps its bound value, no basic value moves.
		r := s.basis[pos]
		s.inBase[r] = -1
		s.status[r] = atLower
		vq := s.value(bestJ)
		s.basis[pos] = bestJ
		s.inBase[bestJ] = pos
		s.status[bestJ] = isBasic
		s.xB[pos] = vq
		s.f.update(pos, s.colBuf[:m])
		s.updates++
		swapped = true
		if len(s.f.etas) >= refactorEvery {
			if !s.refactorize() {
				return swapped
			}
		}
	}
	return swapped
}

// extract converts the solver state into a Solution (row duals recomputed
// fresh; the equality form keeps the problem's own row orientation, so no
// per-row sign fixups are needed — only the maximization flip).
func (s *revSolver) extract(p *Problem, st Status) Solution {
	sol := Solution{Status: st, Pivots: s.pivots, Refactorizations: s.refactors, BasisUpdates: s.updates}
	if st != Optimal {
		return sol
	}
	pr := s.pr
	x := make([]float64, pr.n)
	for j := 0; j < pr.n; j++ {
		if pos := s.inBase[j]; pos >= 0 {
			x[j] = s.xB[pos]
		} else {
			x[j] = s.value(j)
		}
	}
	sol.X = x
	sol.Objective = p.Eval(x)
	s.computeDuals()
	duals := make([]float64, pr.m)
	copy(duals, s.y[:pr.m])
	if p.maximize {
		for k := range duals {
			duals[k] = -duals[k]
		}
	}
	sol.Duals = duals
	return sol
}

// extractX is extract without the dual recomputation, for warm ReSolves,
// which report no duals.
func (s *revSolver) extractX(p *Problem, st Status) Solution {
	sol := Solution{Status: st, Pivots: s.pivots, Refactorizations: s.refactors, BasisUpdates: s.updates}
	if st != Optimal {
		return sol
	}
	pr := s.pr
	x := make([]float64, pr.n)
	for j := 0; j < pr.n; j++ {
		if pos := s.inBase[j]; pos >= 0 {
			x[j] = s.xB[pos]
		} else {
			x[j] = s.value(j)
		}
	}
	sol.X = x
	sol.Objective = p.Eval(x)
	return sol
}

// newNode allocates a node workspace for re-solves from the frozen optimal
// solver s: a solver of s's shape with bounds of its own, sharing s's
// matrix, right-hand sides and costs read-only. resetFrom loads s's state
// into it before each re-solve.
func (s *revSolver) newNode() *revSolver {
	pr := *s.pr
	pr.lo = make([]float64, len(s.pr.lo))
	pr.hi = make([]float64, len(s.pr.hi))
	return newRevSolver(&pr, Options{MaxPivots: 50*(pr.m+pr.nTot()) + 500})
}

// resetFrom loads the frozen optimal solver root into the node workspace s
// by copying, not allocating: bounds, basis, statuses, basic values,
// reduced costs and Devex weights. f, the workspace's own factor, becomes
// root's factor with an empty eta tail (luFactor.resetTo) and s's factor. The
// pivot counters and the Bland, stall, skip and failure state start clear,
// whatever the previous re-solve left. The pivot row needs no reset: its
// unmarked entries are zero, and pivotRow clears the marked ones. The rest of
// the scratch is written before it is read.
func (s *revSolver) resetFrom(root *revSolver, f *luFactor) {
	copy(s.pr.lo, root.pr.lo)
	copy(s.pr.hi, root.pr.hi)
	copy(s.basis, root.basis)
	copy(s.inBase, root.inBase)
	copy(s.status, root.status)
	copy(s.xB, root.xB)
	copy(s.d, root.d)
	copy(s.w, root.w)
	f.resetTo(root.f)
	s.f = f
	s.phase1 = false
	s.pivots, s.refactors, s.updates = 0, 0, 0
	s.degen, s.bland, s.skip, s.failed = 0, false, nil, false
}

// solveRevised runs the sparse core. ok == false means the core hit a
// numerical wall (singular refactorization) and the caller should fall back
// to the dense tableau; every ordinary outcome (including Infeasible,
// Unbounded, IterLimit) reports ok == true.
func (p *Problem) solveRevised(opt Options) (Solution, *revSolver, bool) {
	pr := newRevProblem(p)
	var spent *revSolver // a crash that fell back: its work counts too
	if len(opt.CrashBasis.keys) > 0 {
		s, ok := p.crashRevised(pr, opt)
		if ok {
			sol := s.extract(p, Optimal)
			sol.Warm = true
			return sol, s, true
		}
		spent = s
		if opt.MaxPivots > 0 {
			if opt.MaxPivots -= s.pivots; opt.MaxPivots <= 0 {
				return Solution{Status: IterLimit, Pivots: s.pivots, Refactorizations: s.refactors, BasisUpdates: s.updates}, nil, true
			}
		}
	}
	s := newRevSolver(pr, opt)
	st := s.coldSolve()
	if s.failed {
		return Solution{}, nil, false
	}
	if spent != nil {
		s.pivots += spent.pivots
		s.refactors += spent.refactors
		s.updates += spent.updates
	}
	sol := s.extract(p, st)
	if st != Optimal {
		return sol, nil, true
	}
	return sol, s, true
}

// crashPivots is the pivot cap of a crash: a repair that needs more pivots
// than this is not worth finishing, and the solve goes cold. Without a cap,
// a dual repair on a cost-shifted, dual-degenerate basis can run to the
// default limit of 200·(m+n)+5000 pivots. A variable, so a test can force
// the fallback.
var crashPivots = func(m, n int) int { return 2*(m+n) + 50 }

// crashRevised starts from a caller-supplied portable basis, usually the
// root basis of the previous hour's model, which may differ from this one
// in shape. The columns the basis names are factored with rank repair: a
// missing or dependent column gives way to the slack of a row the others
// leave uncovered. Each boxed nonbasic column then sits at the bound its
// reduced cost favours. A primal-feasible start goes straight to the primal
// simplex. Otherwise every remaining dual-infeasible column has its cost
// shifted until its reduced cost is zero, the dual simplex restores primal
// feasibility, the costs come back, and the primal simplex finishes. All of
// it runs under the crashPivots cap. ok == false (cap, numerical trouble,
// an infeasible or unbounded verdict) sends the caller to the cold solve,
// so correctness never depends on the supplied basis; the returned solver
// then only carries the work spent.
func (p *Problem) crashRevised(pr *revProblem, opt Options) (*revSolver, bool) {
	s := p.crashStart(pr, opt)
	if !s.primalFeasible() {
		// Shift the cost of each remaining dual-infeasible column (unbounded
		// on the side its reduced cost favours) so that the dual simplex
		// starts dual feasible.
		var costs []float64
		for j := 0; j < pr.n+pr.m; j++ {
			if s.dualInfeasible(j) {
				if costs == nil {
					costs = append([]float64(nil), pr.costs...)
				}
				pr.costs[j] -= s.d[j]
				s.d[j] = 0
			}
		}
		st := s.dual()
		if costs != nil {
			copy(pr.costs, costs)
			if st == Optimal && !s.failed {
				s.computeDuals()
			}
		}
		if st != Optimal || s.failed {
			return s, false
		}
	}
	if st := s.primal(); st != Optimal || s.failed {
		return s, false
	}
	return s, true
}

// crashStart sets up a crash: the columns opt.CrashBasis names, factored
// with rank repair, every GE slack at its upper bound, every other boxed
// nonbasic column at its dual-feasible bound, and the basic values solved.
func (p *Problem) crashStart(pr *revProblem, opt Options) *revSolver {
	s := newRevSolver(pr, opt)
	s.maxPivots = crashPivots(pr.m, pr.n)
	if opt.MaxPivots > 0 && opt.MaxPivots < s.maxPivots {
		s.maxPivots = opt.MaxPivots
	}
	var basis []int
	s.f, basis = factorizeRepair(pr, p.crashColumns(opt.CrashBasis))
	copy(s.basis, basis)
	for i, b := range s.basis {
		s.inBase[b] = i
		s.status[b] = isBasic
	}
	s.computeDuals()
	for j := 0; j < pr.n+pr.m; j++ {
		if s.status[j] == isBasic {
			continue
		}
		switch {
		case math.IsInf(pr.lo[j], -1):
			s.status[j] = atUpper // GE slacks: the only unbounded-below columns
		case !math.IsInf(pr.hi[j], 1) && s.d[j] < -zeroTol:
			s.status[j] = atUpper
		}
	}
	s.computeXB()
	return s
}

// primalFeasible reports whether every basic value is within its bounds
// (to the crash screen's 1e-7).
func (s *revSolver) primalFeasible() bool {
	for i, bc := range s.basis {
		if s.xB[i] < s.pr.lo[bc]-1e-7 || s.xB[i] > s.pr.hi[bc]+1e-7 {
			return false
		}
	}
	return true
}

// dualInfeasible reports whether nonbasic column j's reduced cost favours
// moving it off its bound.
func (s *revSolver) dualInfeasible(j int) bool {
	if s.status[j] == isBasic || s.pr.lo[j] == s.pr.hi[j] {
		return false
	}
	return (s.status[j] == atLower && s.d[j] < -zeroTol) || (s.status[j] == atUpper && s.d[j] > zeroTol)
}
