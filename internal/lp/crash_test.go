package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// transportLP builds a small mixed LE/GE/EQ problem whose structure stays
// fixed while supply/demand numbers move — the shape of one capper hour.
func transportLP(supply1, supply2, demand float64) *Problem {
	p := NewProblem()
	x1 := p.AddVar("x1", 3)
	x2 := p.AddVar("x2", 5)
	p.AddConstraint([]Term{{Var: x1, Coef: 1}}, LE, supply1)
	p.AddConstraint([]Term{{Var: x2, Coef: 1}}, LE, supply2)
	p.AddConstraint([]Term{{Var: x1, Coef: 1}, {Var: x2, Coef: 1}}, EQ, demand)
	p.AddConstraint([]Term{{Var: x1, Coef: 2}, {Var: x2, Coef: 1}}, GE, demand/2)
	return p
}

// segmentLP is the LP relaxation of a small price-segment hour, shaped like
// core's hour model: every site serves part of the load λ, its power
// p = a·x + b·y is routed through the price segments segs[i] in reach
// (lo·z ≤ p_k ≤ hi·z, Σ p_k = p, Σ z_k = y ≤ 1), and the objective is the
// energy bill. Segment k of site i covers power [10k − d_i, 10k + 10 − d_i)
// at rate 20 + 7k + i, so which segments are in reach depends on the
// background demand, exactly as piecewise.PlanSegments decides.
func segmentLP(lambda float64, d []float64, segs [][]int) *Problem {
	p := NewProblem()
	var xs []int
	for i := range segs {
		name := fmt.Sprintf("s%d", i)
		x := p.AddVar(name+".x", 0)
		y := p.AddVar(name+".y", 0)
		p.SetVarBounds(y, 0, 1)
		pw := p.AddVar(name+".p", 0)
		sel := []Term{{Var: y, Coef: -1}}
		bal := []Term{{Var: pw, Coef: 1}}
		for _, k := range segs[i] {
			pk := p.AddVar(fmt.Sprintf("%s.p%d", name, k), 20+7*float64(k)+float64(i))
			zk := p.AddVar(fmt.Sprintf("%s.z%d", name, k), 0)
			p.SetVarBounds(zk, 0, 1)
			lo, hi := math.Max(0, 10*float64(k)-d[i]), 10*float64(k)+10-d[i]
			p.AddConstraint([]Term{{Var: pk, Coef: 1}, {Var: zk, Coef: -hi}}, LE, 0)
			if lo > 0 {
				p.AddConstraint([]Term{{Var: pk, Coef: 1}, {Var: zk, Coef: -lo}}, GE, 0)
			}
			sel = append(sel, Term{Var: zk, Coef: 1})
			bal = append(bal, Term{Var: pk, Coef: -1})
		}
		p.AddConstraint(sel, EQ, 0)
		p.AddConstraint([]Term{{Var: pw, Coef: 1}, {Var: x, Coef: -0.004 * float64(1+i)}, {Var: y, Coef: -2}}, EQ, 0)
		p.AddConstraint(bal, EQ, 0)
		p.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: -2500}}, LE, 0)
		xs = append(xs, x)
	}
	sum := make([]Term, len(xs))
	for i, x := range xs {
		sum[i] = Term{Var: x, Coef: 1}
	}
	p.AddConstraint(sum, EQ, lambda)
	return p
}

func TestCrashBasisReproducesColdOptimum(t *testing.T) {
	base := transportLP(10, 10, 12)
	w, root := base.SolveForWarmStart(Options{})
	if root.Status != Optimal {
		t.Fatalf("base: %v", root.Status)
	}
	basis := w.Basis()

	// Next "hour": same structure, shifted numbers.
	next := transportLP(9, 11, 14)
	cold := next.Solve()
	warm := next.SolveWithOptions(Options{CrashBasis: basis})
	if cold.Status != Optimal || warm.Status != Optimal {
		t.Fatalf("cold %v warm %v", cold.Status, warm.Status)
	}
	if !warm.Warm {
		t.Error("the carried basis did not finish the solve")
	}
	if !near(cold.Objective, warm.Objective, 1e-9*(1+cold.Objective)) {
		t.Errorf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if res := next.CheckFeasible(warm.X, 1e-8); len(res) != 0 {
		t.Errorf("warm solution infeasible: %v", res)
	}
}

// keysOf returns the keys of the given columns of p (structural j < n,
// slack of row i at n+i), in order and with repeats kept.
func keysOf(p *Problem, cols ...int) []uint64 {
	names := p.nameKeys()
	var keys []uint64
	for _, j := range cols {
		if j < p.NumVars() {
			keys = append(keys, varKey(names, j))
		} else {
			keys = append(keys, p.rowKey(names, j-p.NumVars()))
		}
	}
	return keys
}

// sortedBasis builds a Basis from raw keys the way basisOf does.
func sortedBasis(keys ...uint64) Basis {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	return Basis{keys: slices.Compact(keys)}
}

func TestCrashBasisInvalidFallsBack(t *testing.T) {
	p := transportLP(10, 10, 12)
	want := p.Solve()
	other := segmentLP(50, []float64{0, 0}, [][]int{{0}, {0}})
	for name, basis := range map[string]Basis{
		"names nothing here": sortedBasis(1, 2, 3, 0xdeadbeef),
		"too many columns":   sortedBasis(keysOf(p, 0, 1, 2, 3, 4, 5)...),
		"duplicates":         sortedBasis(keysOf(p, 0, 0, 0, 0)...),
		"all slacks":         sortedBasis(keysOf(p, 2, 3, 4, 5)...),
		"another family":     other.basisOf([]int{0, 1, 2, 3}),
	} {
		got := p.SolveWithOptions(Options{CrashBasis: basis})
		if got.Status != Optimal || !near(got.Objective, want.Objective, 1e-9) {
			t.Errorf("%s: status %v obj %v, want optimal %v", name, got.Status, got.Objective, want.Objective)
		}
	}
}

// TestCrashBasisAcrossShapeChange carries a root basis across the shape
// change the hour model sees when demand moves: one site's lowest segment
// leaves reach (its column pair and rows go) and a higher one comes into
// reach (a new pair and rows). The crash must still finish from the carried
// basis, at the cold optimum, in fewer pivots than cold.
func TestCrashBasisAcrossShapeChange(t *testing.T) {
	base := segmentLP(4000, []float64{0, 5, 3}, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	w, root := base.SolveForWarmStart(Options{})
	if root.Status != Optimal {
		t.Fatalf("base: %v", root.Status)
	}
	next := segmentLP(4300, []float64{12, 6, 3}, [][]int{{1, 2, 3}, {0, 1, 2}, {0, 1, 2}})
	cold := next.Solve()
	warm := next.SolveWithOptions(Options{CrashBasis: w.Basis()})
	if cold.Status != Optimal || warm.Status != Optimal {
		t.Fatalf("cold %v warm %v", cold.Status, warm.Status)
	}
	if !warm.Warm {
		t.Error("the carried basis did not finish the solve")
	}
	if !near(warm.Objective, cold.Objective, 1e-9*(1+math.Abs(cold.Objective))) {
		t.Errorf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if res := next.CheckFeasible(warm.X, 1e-7); len(res) != 0 {
		t.Errorf("warm solution infeasible: %v", res)
	}
	if warm.Pivots >= cold.Pivots {
		t.Errorf("warm solve took %d pivots, cold %d", warm.Pivots, cold.Pivots)
	}
	t.Logf("pivots warm %d / cold %d", warm.Pivots, cold.Pivots)
}

// TestCrashRepairsSingularBasis names a dependent column set: x1 is a
// combination of the slacks of rows 0, 2 and 3. The LU drops it and the
// slack of the row left uncovered takes its place; the solve still finishes
// from the repaired basis.
func TestCrashRepairsSingularBasis(t *testing.T) {
	p := transportLP(10, 10, 12)
	b := sortedBasis(keysOf(p, 0, 2, 4, 5)...)
	pr := newRevProblem(p)
	if _, ok := factorize(pr, []int{0, 2, 4, 5}); ok {
		t.Fatal("test basis is not singular")
	}
	_, basis := factorizeRepair(pr, p.crashColumns(b))
	if len(basis) != pr.m {
		t.Fatalf("repaired basis has %d columns, want %d", len(basis), pr.m)
	}
	if _, ok := factorize(pr, basis); !ok {
		t.Fatalf("repaired basis %v is still singular", basis)
	}
	want := p.Solve()
	got := p.SolveWithOptions(Options{CrashBasis: b})
	if got.Status != Optimal || !near(got.Objective, want.Objective, 1e-9) {
		t.Fatalf("got %v obj %v, want optimal %v", got.Status, got.Objective, want.Objective)
	}
	if !got.Warm {
		t.Error("singular basis was solved cold, not repaired")
	}
}

// TestCrashRepairsInfeasibleBasis finds bases whose crash start is neither
// primal nor dual feasible and checks that each is repaired (dual simplex on
// shifted costs, then primal) to the cold optimum instead of going cold.
func TestCrashRepairsInfeasibleBasis(t *testing.T) {
	p := segmentLP(4000, []float64{0, 5, 3}, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	want := p.Solve()
	r := rand.New(rand.NewSource(3))
	n, m := p.NumVars(), p.NumConstraints()
	found := 0
	for trial := 0; trial < 2000 && found < 20; trial++ {
		cols := r.Perm(n + m)[:m]
		b := p.basisOf(cols)
		s := p.crashStart(newRevProblem(p), Options{CrashBasis: b})
		dualInfeasible := false
		for j := 0; j < n+m; j++ {
			dualInfeasible = dualInfeasible || s.dualInfeasible(j)
		}
		if s.primalFeasible() || !dualInfeasible {
			continue
		}
		found++
		got := p.SolveWithOptions(Options{CrashBasis: b})
		if got.Status != Optimal || !near(got.Objective, want.Objective, 1e-9*(1+math.Abs(want.Objective))) {
			t.Fatalf("basis %v: got %v obj %v, want optimal %v", cols, got.Status, got.Objective, want.Objective)
		}
		if !got.Warm {
			t.Errorf("basis %v: solved cold, not repaired", cols)
		}
	}
	if found == 0 {
		t.Fatal("no basis was neither primal nor dual feasible")
	}
}

// TestCrashCapFallsBackCold: a repair that exhausts its pivot cap returns
// exactly the cold answer, with the crash's spent pivots counted.
func TestCrashCapFallsBackCold(t *testing.T) {
	defer func(f func(m, n int) int) { crashPivots = f }(crashPivots)
	crashPivots = func(m, n int) int { return 1 }

	base := segmentLP(4000, []float64{0, 5, 3}, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	w, _ := base.SolveForWarmStart(Options{})
	next := segmentLP(4300, []float64{12, 6, 3}, [][]int{{1, 2, 3}, {0, 1, 2}, {0, 1, 2}})
	cold := next.Solve()
	got := next.SolveWithOptions(Options{CrashBasis: w.Basis()})
	if got.Warm {
		t.Fatal("a one-pivot cap should not finish this repair")
	}
	if got.Status != cold.Status || got.Objective != cold.Objective || !reflect.DeepEqual(got.X, cold.X) ||
		!reflect.DeepEqual(got.Duals, cold.Duals) {
		t.Errorf("capped crash answered %v %v, cold %v %v", got.Status, got.Objective, cold.Status, cold.Objective)
	}
	if got.Pivots < cold.Pivots+1 {
		t.Errorf("capped crash reports %d pivots, cold alone %d", got.Pivots, cold.Pivots)
	}
}

// familyLP is one instance of a random LP family fixed by seed: a universe
// of named variables and rows, of which the instance keeps those whose bit
// is set in keep (bit j < 6 keeps variable j, bit 6+k row k), with every
// coefficient and bound moved by delta. The universe's reference point
// satisfies every row, so an instance is feasible; a variable bounded only
// by a dropped row can make it unbounded.
func familyLP(seed int64, keep uint64, delta float64) *Problem {
	const nv, nc = 6, 7
	r := rand.New(rand.NewSource(seed))
	x0 := make([]float64, nv)
	for j := range x0 {
		x0[j] = 8 * r.Float64()
	}
	p := NewProblem()
	idx := make([]int, nv)
	for j := 0; j < nv; j++ {
		cost := r.Float64()*4 - 2
		ub := 20 + 5*r.Float64()
		boxed := r.Intn(3) > 0
		idx[j] = -1
		if keep&(1<<j) == 0 {
			continue
		}
		idx[j] = p.AddVar(fmt.Sprintf("v%d", j), cost*(1+delta))
		if boxed {
			p.SetVarBounds(idx[j], 0, ub+delta)
		} else {
			p.AddConstraint([]Term{{Var: idx[j], Coef: 1}}, LE, ub)
		}
	}
	for k := 0; k < nc; k++ {
		var terms []Term
		dot := 0.0
		for j := 0; j < nv; j++ {
			c := (r.Float64()*6 - 3) * (1 + delta*r.Float64())
			if r.Intn(3) == 0 || idx[j] < 0 {
				continue
			}
			terms = append(terms, Term{Var: idx[j], Coef: c})
			dot += c * x0[j]
		}
		rel := Rel(r.Intn(3))
		slack := r.Float64() * 5
		if keep&(1<<(nv+k)) == 0 || len(terms) == 0 {
			continue
		}
		switch rel {
		case LE:
			p.AddConstraint(terms, LE, dot+slack)
		case GE:
			p.AddConstraint(terms, GE, dot-slack)
		default:
			p.AddConstraint(terms, EQ, dot)
		}
	}
	return p
}

// crashMatchesCold reports (with a log line on failure) whether crashing q
// from b gives the cold solve's status, objective and a feasible point.
func crashMatchesCold(t *testing.T, q *Problem, b Basis) bool {
	t.Helper()
	cold := q.Solve()
	warm := q.SolveWithOptions(Options{CrashBasis: b})
	if cold.Status != warm.Status {
		t.Logf("warm %v vs cold %v", warm.Status, cold.Status)
		return false
	}
	if cold.Status != Optimal {
		return true
	}
	if res := q.CheckFeasible(warm.X, 1e-7); len(res) != 0 {
		t.Logf("warm solution infeasible: %v", res)
		return false
	}
	if !near(cold.Objective, warm.Objective, 1e-7*(1+math.Abs(cold.Objective))) {
		t.Logf("warm objective %v vs cold %v", warm.Objective, cold.Objective)
		return false
	}
	return true
}

// TestCrashBasisPropertyRandom solves one instance of a random family, then
// crashes a second instance whose structure (variables and rows in and out)
// and numbers both moved from the first optimum. Warm and cold must agree in
// status and objective.
func TestCrashBasisPropertyRandom(t *testing.T) {
	prop := func(seed int64, keepA, keepB uint16, d uint8) bool {
		base := familyLP(seed, uint64(keepA), 0)
		w, root := base.SolveForWarmStart(Options{})
		if root.Status != Optimal {
			return true // nothing to warm-start from
		}
		next := familyLP(seed, uint64(keepB), float64(d)/512)
		if !crashMatchesCold(t, next, w.Basis()) {
			t.Logf("seed %d keep %#x → %#x", seed, keepA, keepB)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// FuzzCrashBasis crashes a perturbed instance of a small LP family from a
// fuzzed basis: any subset of the family's column and row keys, mixed with
// raw garbage keys. The answer must be the cold solve's, and nothing may
// panic.
func FuzzCrashBasis(f *testing.F) {
	f.Add(int64(1), uint16(0xffff), uint16(0x1fff), uint8(40), []byte{0xff, 0x0f, 1, 2, 3})
	f.Add(int64(7), uint16(0x0f3f), uint16(0x1ffe), uint8(0), []byte{})
	f.Add(int64(42), uint16(0x1fff), uint16(0x00ff), uint8(255), []byte{0xaa, 0x55, 0xaa, 0x55, 0, 0, 0, 0, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed int64, keepA, keepB uint16, d uint8, garbage []byte) {
		base := familyLP(seed, uint64(keepA), 0)
		var cols []int
		for i := 0; i < len(garbage) && i < 4; i++ {
			// A set bit of the first four bytes selects base column i·8+bit.
			for bit := 0; bit < 8; bit++ {
				if j := i*8 + bit; garbage[i]&(1<<bit) != 0 && j < base.NumVars()+base.NumConstraints() {
					cols = append(cols, j)
				}
			}
		}
		keys := keysOf(base, cols...)
		for i := 4; i+8 <= len(garbage); i += 8 { // then raw 8-byte keys
			var k uint64
			for _, c := range garbage[i : i+8] {
				k = k<<8 | uint64(c)
			}
			keys = append(keys, k)
		}
		next := familyLP(seed, uint64(keepB), float64(d)/512)
		if !crashMatchesCold(t, next, sortedBasis(keys...)) {
			t.Fatalf("seed %d keep %#x → %#x delta %d", seed, keepA, keepB, d)
		}
	})
}

func TestAddConstraintSumsRepeatsInTermOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := NewProblem()
		nv := 1 + r.Intn(8)
		for j := 0; j < nv; j++ {
			p.AddVar(fmt.Sprintf("v%d", j), 0)
		}
		var terms []Term
		dense := make([]float64, nv)
		for k := r.Intn(20); k >= 0; k-- {
			// Magnitudes far apart make the sum depend on its order.
			c := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(33)-16))
			if r.Intn(5) == 0 {
				c = -c // sometimes cancel exactly
			}
			v := r.Intn(nv)
			terms = append(terms, Term{Var: v, Coef: c})
			dense[v] += c
		}
		k := p.AddConstraint(terms, LE, 1)
		got := p.Constraint(k).Terms
		seen := map[int]bool{}
		for _, t := range terms {
			seen[t.Var] = true
		}
		if len(got) != len(seen) {
			t.Fatalf("trial %d: %d terms for %d referenced variables", trial, len(got), len(seen))
		}
		for i, tm := range got {
			if i > 0 && tm.Var <= got[i-1].Var {
				t.Fatalf("trial %d: terms not sorted by variable: %v", trial, got)
			}
			if math.Float64bits(tm.Coef) != math.Float64bits(dense[tm.Var]) && tm.Coef != dense[tm.Var] {
				t.Fatalf("trial %d: variable %d sums to %v, dense row %v", trial, tm.Var, tm.Coef, dense[tm.Var])
			}
		}
	}
	// The order matters: 1e16 + 1 − 1e16 is 0 in this order, 1 in another.
	p := NewProblem()
	v := p.AddVar("v", 0)
	p.AddConstraint([]Term{{Var: v, Coef: 1e16}, {Var: v, Coef: 1}, {Var: v, Coef: -1e16}}, LE, 1)
	if c := p.Constraint(0).Terms[0].Coef; c != 0 {
		t.Errorf("1e16 + 1 − 1e16 summed to %v, want 0 as added in term order", c)
	}
}

func TestAddConstraintOutOfOrderIsLinearithmic(t *testing.T) {
	const k = 1 << 18
	p := NewProblem()
	for j := 0; j < k; j++ {
		p.AddVar("", 1)
	}
	terms := make([]Term, 0, k+k/2)
	for j := k - 1; j >= 0; j-- {
		terms = append(terms, Term{Var: j, Coef: 1})
		if j%2 == 0 {
			terms = append(terms, Term{Var: k - 1 - j, Coef: 1})
		}
	}
	start := time.Now()
	p.AddConstraint(terms, LE, 1)
	// A quadratic merge of 393,216 terms takes minutes; a sort, milliseconds.
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("AddConstraint of %d out-of-order terms took %v", len(terms), el)
	}
	if got := len(p.Constraint(0).Terms); got != k {
		t.Errorf("%d terms after merging, want %d", got, k)
	}
}
