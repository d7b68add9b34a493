package lp

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWarmStartBasic(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18; optimum 36 at (2,6).
	p := NewProblem()
	p.SetMaximize(true)
	x := p.AddVar("x", 3)
	y := p.AddVar("y", 5)
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, LE, 4)
	p.AddConstraint([]Term{{Var: y, Coef: 2}}, LE, 12)
	p.AddConstraint([]Term{{Var: x, Coef: 3}, {Var: y, Coef: 2}}, LE, 18)
	w, root := p.SolveForWarmStart(Options{})
	if root.Status != Optimal || !near(root.Objective, 36, 1e-8) {
		t.Fatalf("root: %v obj=%v", root.Status, root.Objective)
	}
	// Branch x ≤ 1: optimum becomes 3 + 5·6 = 33.
	s := w.ReSolve([]ExtraRow{{Terms: []Term{{Var: x, Coef: 1}}, Rel: LE, RHS: 1}})
	if s.Status != Optimal || !near(s.Objective, 33, 1e-8) {
		t.Fatalf("x≤1: %v obj=%v, want 33", s.Status, s.Objective)
	}
	// Branch x ≥ 3: y ≤ (18−9)/2 = 4.5 → 9 + 22.5 = 31.5.
	s = w.ReSolve([]ExtraRow{{Terms: []Term{{Var: x, Coef: 1}}, Rel: GE, RHS: 3}})
	if s.Status != Optimal || !near(s.Objective, 31.5, 1e-8) {
		t.Fatalf("x≥3: %v obj=%v, want 31.5", s.Status, s.Objective)
	}
	// Contradictory bounds → infeasible.
	s = w.ReSolve([]ExtraRow{
		{Terms: []Term{{Var: x, Coef: 1}}, Rel: GE, RHS: 3},
		{Terms: []Term{{Var: x, Coef: 1}}, Rel: LE, RHS: 2},
	})
	if s.Status != Infeasible {
		t.Fatalf("contradiction: %v, want infeasible", s.Status)
	}
	// No extra rows → the root solution itself.
	s = w.ReSolve(nil)
	if !near(s.Objective, 36, 1e-9) {
		t.Fatalf("empty extra: obj=%v", s.Objective)
	}
}

func TestWarmStartOnInfeasibleBase(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, GE, 5)
	p.AddConstraint([]Term{{Var: x, Coef: 1}}, LE, 3)
	w, sol := p.SolveForWarmStart(Options{})
	if w != nil || sol.Status != Infeasible {
		t.Fatalf("got warm start %v, status %v for infeasible base", w != nil, sol.Status)
	}
}

func TestWarmStartWithEqualityBase(t *testing.T) {
	// Base problem uses EQ rows (artificials in the tableau); warm restarts
	// must keep them barred.
	p := NewProblem()
	x := p.AddVar("x", 2)
	y := p.AddVar("y", 3)
	p.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, EQ, 10)
	p.AddConstraint([]Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, LE, 2)
	w, root := p.SolveForWarmStart(Options{})
	if root.Status != Optimal || !near(root.Objective, 24, 1e-8) {
		t.Fatalf("root: %v obj=%v", root.Status, root.Objective)
	}
	// Add y ≥ 7: x = 3, y = 7 → 6+21 = 27.
	s := w.ReSolve([]ExtraRow{{Terms: []Term{{Var: y, Coef: 1}}, Rel: GE, RHS: 7}})
	if s.Status != Optimal || !near(s.Objective, 27, 1e-8) {
		t.Fatalf("y≥7: %v obj=%v, want 27", s.Status, s.Objective)
	}
	if v := p.CheckFeasible(s.X, 1e-7); len(v) != 0 {
		t.Fatalf("warm solution violates base rows: %v", v)
	}
}

// TestWarmMatchesColdProperty re-solves random feasible LPs with random
// extra bound rows both warm and cold; statuses and objectives must agree.
func TestWarmMatchesColdProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleLP(r)
		w, root := p.SolveForWarmStart(Options{})
		if root.Status != Optimal {
			return true // nothing to warm-start; covered elsewhere
		}
		extra, q := randomBoundRows(r, p, root.X)
		warm := w.ReSolve(extra)
		cold := q.Solve()
		if warm.Status != cold.Status {
			t.Logf("seed %d: warm %v vs cold %v", seed, warm.Status, cold.Status)
			return false
		}
		if warm.Status != Optimal {
			return true
		}
		if !near(warm.Objective, cold.Objective, 1e-6*(1+math.Abs(cold.Objective))) {
			t.Logf("seed %d: warm obj %v vs cold %v", seed, warm.Objective, cold.Objective)
			return false
		}
		if v := q.CheckFeasible(warm.X, 1e-6); len(v) != 0 {
			t.Logf("seed %d: warm solution infeasible: %v", seed, v)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// randomBoundRows draws 1-3 random single-variable bounds around the point x
// and returns them with a copy of p that carries them as ordinary rows.
func randomBoundRows(r *rand.Rand, p *Problem, x []float64) ([]ExtraRow, *Problem) {
	var extra []ExtraRow
	q := p.Clone()
	for k := 0; k < 1+r.Intn(3); k++ {
		v := r.Intn(p.NumVars())
		var row ExtraRow
		if r.Intn(2) == 0 {
			row = ExtraRow{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: math.Floor(x[v])}
		} else {
			row = ExtraRow{Terms: []Term{{Var: v, Coef: 1}}, Rel: GE, RHS: math.Ceil(x[v])}
		}
		extra = append(extra, row)
		q.AddConstraint(row.Terms, row.Rel, row.RHS)
	}
	return extra, q
}

// TestFallbackWarmStartReSolvesCold covers the WarmStart SolveForWarmStart
// records when the sparse core goes numerically singular and the dense
// tableau answers the base problem instead. It freezes no solver state, so
// Basis must be empty and every ReSolve must be exactly a cold solve of the
// problem plus the rows.
func TestFallbackWarmStartReSolvesCold(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleLP(r)
		root := p.solveDense(Options{})
		if root.Status != Optimal {
			return true
		}
		w := &WarmStart{problem: p, root: root}
		if b := w.Basis(); len(b.keys) != 0 {
			t.Logf("seed %d: fallback warm start reports basis %v", seed, b)
			return false
		}
		extra, q := randomBoundRows(r, p, root.X)
		got, want := w.ReSolve(extra), q.Solve()
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: ReSolve %+v, cold %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmIsCheaperThanCold(t *testing.T) {
	// The point of warm starting: adding one bound row should cost far
	// fewer pivots than a cold two-phase solve on a nontrivial problem.
	r := rand.New(rand.NewSource(11))
	var warmPiv, coldPiv int
	for trial := 0; trial < 30; trial++ {
		p, _ := randomFeasibleLP(r)
		w, root := p.SolveForWarmStart(Options{})
		if root.Status != Optimal || p.NumVars() == 0 {
			continue
		}
		v := r.Intn(p.NumVars())
		row := ExtraRow{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: root.X[v] / 2}
		warm := w.ReSolve([]ExtraRow{row})
		q := p.Clone()
		q.AddConstraint(row.Terms, row.Rel, row.RHS)
		cold := q.Solve()
		if warm.Status == Optimal && cold.Status == Optimal {
			warmPiv += warm.Pivots
			coldPiv += cold.Pivots
		}
	}
	if coldPiv == 0 {
		t.Skip("no optimal pairs")
	}
	if warmPiv*2 >= coldPiv {
		t.Errorf("warm pivots %d not well below cold %d", warmPiv, coldPiv)
	}
}

// reSolveStep is one ReSolve of a re-solve sequence: its rows, and whether it
// runs with refactorEvery at 1, so that its first basis update refactorizes.
type reSolveStep struct {
	rows     []ExtraRow
	refactor bool
}

// randomReSolveSequence draws 8 to 12 re-solves of p around its root point x,
// in random order: bound rows (randomBoundRows); crossed bounds, caught
// before any pivot; a bound past a variable's box, which the dual simplex
// proves infeasible; a two-term row, which takes the cold path; and a bound
// that cuts x off at its largest entry, run with refactorizations forced.
// Each kind appears at least once.
func randomReSolveSequence(r *rand.Rand, p *Problem, x []float64) []reSolveStep {
	const (
		bounds = iota
		crossed
		pastBox
		twoTerm
		cutRefactor
		kinds
	)
	seq := []int{bounds, crossed, pastBox, twoTerm, cutRefactor}
	for n := 8 + r.Intn(5); len(seq) < n; {
		seq = append(seq, r.Intn(kinds))
	}
	r.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	steps := make([]reSolveStep, len(seq))
	for k, kind := range seq {
		v := r.Intn(p.NumVars())
		var rows []ExtraRow
		switch kind {
		case bounds:
			rows, _ = randomBoundRows(r, p, x)
		case crossed:
			// −x_v ≤ −(⌈x_v⌉+1) is x_v ≥ ⌈x_v⌉+1: a negative coefficient
			// flips the row's sense.
			rows = []ExtraRow{
				{Terms: []Term{{Var: v, Coef: -1}}, Rel: LE, RHS: -math.Ceil(x[v]) - 1},
				{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: math.Floor(x[v])},
			}
		case pastBox:
			// randomFeasibleLP boxes every variable with a row x_v ≤ 25.
			rows = []ExtraRow{{Terms: []Term{{Var: v, Coef: 1}}, Rel: GE, RHS: 26 + 4*r.Float64()}}
		case twoTerm:
			u := r.Intn(p.NumVars())
			rows = []ExtraRow{{Terms: []Term{{Var: u, Coef: 1}, {Var: v, Coef: 1 + r.Float64()}}, Rel: LE, RHS: math.Floor(x[u] + x[v])}}
		case cutRefactor:
			for j := range x {
				if x[j] > x[v] {
					v = j
				}
			}
			rows = []ExtraRow{{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: x[v] / 2}}
		}
		steps[k] = reSolveStep{rows: rows, refactor: kind == cutRefactor}
	}
	return steps
}

// scribble leaves w's node workspace as a re-solve that went wrong anywhere
// might: every field a reset restores holds garbage, the Bland, stall, skip
// and failure state is set, the pivot counters are past any cap, the pivot
// row's marked entries and the scratch vectors are NaN, and the arena holds
// an entry no eta owns.
func scribble(w *WarmStart) {
	s := w.node
	if s == nil {
		return
	}
	nan := math.NaN()
	for _, v := range [][]float64{s.pr.lo, s.pr.hi, s.xB, s.d, s.w, s.y, s.colBuf, s.rhoBuf, s.luBuf} {
		for i := range v {
			v[i] = nan
		}
	}
	for i := range s.basis {
		s.basis[i] = 0
	}
	for j := range s.inBase {
		s.inBase[j] = 0
	}
	s.skip = map[int]bool{}
	for j := range s.status {
		s.status[j] = atUpper
		s.skip[j] = true
	}
	for k, word := range s.mark {
		for ; word != 0; word &= word - 1 {
			s.alpha[k<<6|bits.TrailingZeros64(word)] = nan
		}
	}
	s.pivots, s.refactors, s.updates = 1<<30, 1<<30, 1<<30
	s.degen, s.bland, s.failed, s.phase1 = 1<<30, true, true, true
	s.f = nil
	w.nodeF.etaIdx = append(w.nodeF.etaIdx, 0)
	w.nodeF.etaVal = append(w.nodeF.etaVal, nan)
}

// warmPath reports whether ReSolve runs rows in the node workspace.
func warmPath(w *WarmStart, rows []ExtraRow) bool {
	for _, ex := range rows {
		if len(ex.Terms) != 1 || ex.Terms[0].Coef == 0 || ex.Rel == EQ {
			return false
		}
	}
	return w.rev != nil
}

// nodeArenaExact reports whether the workspace factor's arena holds exactly
// the entries of the etas its re-solve appended, none a reset left behind.
func nodeArenaExact(w *WarmStart) bool {
	f := &w.nodeF
	n := 0
	for _, e := range f.etas[len(w.rev.f.etas):] {
		n += len(e.idx)
	}
	return len(f.etaIdx) == n && len(f.etaVal) == n
}

// checkReSolveSequence runs steps on one WarmStart of p, scribbling over its
// node workspace before every re-solve. Each answer must be
// reflect.DeepEqual to the same rows re-solved on a fresh SolveForWarmStart,
// the workspace's arena must hold only its own re-solve's etas, and Root and
// Basis must read as before the sequence. refactored reports whether a
// warm re-solve refactorized.
func checkReSolveSequence(t *testing.T, p *Problem, steps []reSolveStep) (ok, refactored bool) {
	t.Helper()
	defer func(n int) { refactorEvery = n }(refactorEvery)
	w, root := p.SolveForWarmStart(Options{})
	if root.Status != Optimal {
		return true, false
	}
	basis := w.Basis()
	for k, st := range steps {
		fresh, _ := p.SolveForWarmStart(Options{})
		scribble(w)
		saved := refactorEvery
		if st.refactor {
			refactorEvery = 1
		}
		got := w.ReSolve(st.rows)
		want := fresh.ReSolve(st.rows)
		refactorEvery = saved
		if !reflect.DeepEqual(got, want) {
			t.Logf("step %d %+v: reused workspace %+v, fresh %+v", k, st, got, want)
			return false, refactored
		}
		if warmPath(w, st.rows) {
			if !nodeArenaExact(w) {
				t.Logf("step %d: arena holds %d entries past its re-solve's etas", k, len(w.nodeF.etaIdx))
				return false, refactored
			}
			// The stall counter counts this re-solve's degenerate steps, and
			// Bland's rule engages only past 100+m of them.
			if s := w.node; s.degen > got.Pivots || (s.bland && s.degen <= 100+p.NumConstraints()) {
				t.Logf("step %d: stall state (%d, %v) after %d pivots", k, s.degen, s.bland, got.Pivots)
				return false, refactored
			}
			refactored = refactored || got.Refactorizations > 0
		}
	}
	if !reflect.DeepEqual(w.Root(), root) || !reflect.DeepEqual(w.Basis(), basis) {
		t.Logf("root or basis moved: %+v %v, was %+v %v", w.Root(), w.Basis(), root, basis)
		return false, refactored
	}
	return true, refactored
}

// TestReSolveSequenceMatchesFresh pins the reused node workspace: on each of
// 250 random LPs, one WarmStart runs a random sequence of feasible,
// infeasible, cold-path and refactorizing re-solves with its workspace
// scribbled over before each, and every answer must equal, field for field
// and bit for bit, the same rows re-solved on a fresh warm start.
func TestReSolveSequenceMatchesFresh(t *testing.T) {
	lps, refactored := 0, 0
	for seed := int64(0); seed < 250; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleLP(r)
		root := p.Solve()
		if root.Status != Optimal {
			continue
		}
		ok, ref := checkReSolveSequence(t, p, randomReSolveSequence(r, p, root.X))
		if !ok {
			t.Fatalf("seed %d: a re-solve on the reused workspace broke the contract logged above", seed)
		}
		lps++
		if ref {
			refactored++
		}
	}
	t.Logf("%d LPs, %d with a refactorizing re-solve", lps, refactored)
	if lps < 200 || refactored < lps/2 {
		t.Fatalf("%d LPs, %d with a refactorizing re-solve; want ≥ 200 and ≥ half", lps, refactored)
	}
}

// TestReSolveAllocatesOnlyItsAnswer pins that a warm ReSolve that pivots
// allocates only its answer's X once the workspace exists.
func TestReSolveAllocatesOnlyItsAnswer(t *testing.T) {
	tested := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleLP(r)
		w, root := p.SolveForWarmStart(Options{})
		if root.Status != Optimal {
			continue
		}
		v := 0
		for j := range root.X {
			if root.X[j] > root.X[v] {
				v = j
			}
		}
		row := []ExtraRow{{Terms: []Term{{Var: v, Coef: 1}}, Rel: LE, RHS: root.X[v] / 2}}
		sol := w.ReSolve(row) // allocates the workspace
		if sol.Status != Optimal || sol.Pivots == 0 || sol.Refactorizations != 0 {
			continue
		}
		if a := testing.AllocsPerRun(100, func() { w.ReSolve(row) }); a > 1 {
			t.Errorf("seed %d: a warm ReSolve allocates %v times, want ≤ 1", seed, a)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no warm re-solve that pivots")
	}
}

// byteSource is a rand.Source that reads its numbers from fuzz bytes, eight
// to a number, so a fuzzer steers every choice of a generator that draws
// from it. Once the bytes run out it continues with a fixed splitmix64
// sequence: a source stuck at one value would never end the rejection loops
// of rand.Rand's bounded draws.
type byteSource struct {
	b    []byte
	tail uint64
}

func (s *byteSource) Int63() int64 {
	if len(s.b) == 0 {
		s.tail += 0x9e3779b97f4a7c15
		z := s.tail
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int64((z ^ z>>31) >> 1)
	}
	var v uint64
	for k := 0; k < 8; k++ {
		v <<= 8
		if len(s.b) > 0 {
			v |= uint64(s.b[0])
			s.b = s.b[1:]
		}
	}
	return int64(v >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzReSolveSequence is TestReSolveSequenceMatchesFresh with its generators
// (randomFeasibleLP, randomReSolveSequence) drawing from fuzz bytes.
func FuzzReSolveSequence(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		b := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rand.New(&byteSource{b: data})
		p, _ := randomFeasibleLP(r)
		root := p.Solve()
		if root.Status != Optimal {
			return
		}
		if ok, _ := checkReSolveSequence(t, p, randomReSolveSequence(r, p, root.X)); !ok {
			t.Fatal("a re-solve on the reused workspace broke the contract logged above")
		}
	})
}
