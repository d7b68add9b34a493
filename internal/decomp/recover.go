package decomp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"billcap/internal/lp"
)

// sel is one site's primal state: a segment choice and a load (seg -1 = off).
type sel struct {
	seg  int
	load float64
}

// candidate is one recovered primal plan with its totals and objective.
type candidate struct {
	sel  []sel
	load float64
	cost float64
	obj  float64
}

func (c candidate) betterThan(o candidate, maxSense bool) bool {
	if maxSense {
		return c.obj > o.obj
	}
	return c.obj < o.obj
}

// recoverer turns dual iterates into feasible primal plans: trim coupling
// violations worst-unit-cost first, fill remaining headroom cheapest-chunk
// first (all-or-nothing segment entries, partial within-segment extensions),
// then polish the continuous loads with a tiny LP on the chosen segments.
// One recoverer serves one Solve, or one Greedy without the polish.
type recoverer struct {
	inst *Instance
	// expired, when non-nil, reports that the solve's deadline or Cancel has
	// fired: recovery then bails out of the greedy fill and skips the polish
	// LP, so a primal pass in flight cannot overrun the hour's budget.
	expired func() bool
	// pivots and polishes count the polish LPs actually solved; memo hits
	// add nothing.
	pivots   int
	polishes int
	// memo holds every polish answer of this Solve, keyed by every site's
	// segment choice (see polish); key is the reused lookup buffer.
	memo map[string]polished
	key  []byte
}

// polished is one memoized polish answer.
type polished struct {
	cand candidate
	ok   bool
}

func (r *recoverer) done() bool { return r.expired != nil && r.expired() }

func (r *recoverer) balTol() float64 { return 1e-7 * (1 + math.Abs(r.inst.TargetLoad)) }
func (r *recoverer) budTol() float64 {
	if math.IsInf(r.inst.BudgetUSD, 1) {
		return 0
	}
	return 1e-7 * (1 + r.inst.BudgetUSD)
}

// minimalState is every site at its cheapest admissible point: off when
// allowed, else the lowest segment at its minimum load.
func (r *recoverer) minimalState() []sel {
	out := make([]sel, len(r.inst.Sites))
	for i := range r.inst.Sites {
		s := &r.inst.Sites[i]
		if s.CanOff || len(s.Segments) == 0 {
			out[i] = sel{seg: -1}
		} else {
			out[i] = sel{seg: 0, load: s.Segments[0].LoadLo}
		}
	}
	return out
}

func stateFromChoices(choices []choice) []sel {
	out := make([]sel, len(choices))
	for i, c := range choices {
		out[i] = sel{seg: c.seg, load: c.load}
	}
	return out
}

func (r *recoverer) totals(st []sel) (load, cost float64) {
	for i, c := range st {
		if c.seg >= 0 {
			g := r.inst.Sites[i].Segments[c.seg]
			load += c.load
			cost += g.Cost(c.load)
		}
	}
	return load, cost
}

func (r *recoverer) objective(load, cost float64) float64 {
	if r.inst.Sense == MaxLoadWithinBudget {
		return load - r.inst.Epsilon*cost
	}
	return cost
}

// recoverFrom restores feasibility starting from st and returns the best of
// the greedy plan and its LP polish. st is consumed.
func (r *recoverer) recoverFrom(st []sel) (candidate, bool) {
	inst := r.inst
	if inst.Sense == MinCostServeAll {
		// Quick capacity screen: mandatory minima must fit under the target
		// and total capacity must reach it.
		var minL, maxL float64
		for i := range inst.Sites {
			s := &inst.Sites[i]
			maxL += s.maxLoad()
			if !s.CanOff && len(s.Segments) > 0 {
				minL += s.Segments[0].LoadLo
			}
		}
		if maxL < inst.TargetLoad-r.balTol() || minL > inst.TargetLoad+r.balTol() {
			return candidate{}, false
		}
	}
	r.trim(st)
	r.fill(st)
	cand, ok := r.candidateFrom(st)
	// The polish LP is the expensive half of recovery; past the deadline the
	// greedy plan (already validated above) is the answer.
	if !r.done() {
		if pol, pok := r.polish(st); pok {
			if !ok || pol.betterThan(cand, inst.Sense == MaxLoadWithinBudget) {
				cand, ok = pol, true
			}
		}
	}
	return cand, ok
}

// trim reduces st until the coupling rows hold: first shrink loads within
// their segments (highest marginal cost first — the reverse of the greedy
// fill order), then step whole sites down a segment or off.
func (r *recoverer) trim(st []sel) {
	inst := r.inst
	maxSense := inst.Sense == MaxLoadWithinBudget
	useBal := !math.IsInf(inst.TargetLoad, 1)
	useBud := maxSense && !math.IsInf(inst.BudgetUSD, 1)

	load, cost := r.totals(st)
	violated := func() bool {
		if useBal && load > inst.TargetLoad+r.balTol() {
			return true
		}
		return useBud && cost > inst.BudgetUSD+r.budTol()
	}
	if !violated() {
		return
	}

	// Pass 1: within-segment reductions, most expensive marginal unit first.
	order := make([]int, 0, len(st))
	for i, c := range st {
		if c.seg >= 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ga := inst.Sites[order[a]].Segments[st[order[a]].seg]
		gb := inst.Sites[order[b]].Segments[st[order[b]].seg]
		return ga.Cost1 > gb.Cost1
	})
	for _, i := range order {
		if !violated() {
			return
		}
		g := inst.Sites[i].Segments[st[i].seg]
		room := st[i].load - g.LoadLo
		if room <= 0 {
			continue
		}
		// Give back just enough to clear the worse of the two violations,
		// bounded by the segment's room.
		need := 0.0
		if useBal {
			need = math.Max(need, load-inst.TargetLoad)
		}
		if useBud && g.Cost1 > 0 {
			need = math.Max(need, (cost-inst.BudgetUSD)/g.Cost1)
		}
		d := math.Min(room, need)
		if d <= 0 {
			continue
		}
		st[i].load -= d
		load -= d
		cost -= g.Cost1 * d
	}

	// Pass 2: step sites down a segment (or off) until feasible. Each step
	// strictly lowers a site's segment index, so the loop is bounded.
	for violated() {
		stepped := false
		for _, i := range order {
			if !violated() {
				return
			}
			c := st[i]
			if c.seg < 0 {
				continue
			}
			s := &inst.Sites[i]
			g := s.Segments[c.seg]
			load -= c.load
			cost -= g.Cost(c.load)
			if c.seg == 0 {
				if !s.CanOff {
					// Mandatory site at its floor: restore and move on.
					load += c.load
					cost += g.Cost(c.load)
					continue
				}
				st[i] = sel{seg: -1}
			} else {
				down := s.Segments[c.seg-1]
				l := math.Min(down.LoadHi, c.load)
				st[i] = sel{seg: c.seg - 1, load: l}
				load += l
				cost += down.Cost(l)
			}
			stepped = true
		}
		if !stepped {
			return // nothing left to give back; candidateFrom will reject
		}
		// Re-run within-segment trimming after the structural change.
		for _, i := range order {
			if !violated() {
				return
			}
			c := st[i]
			if c.seg < 0 {
				continue
			}
			g := inst.Sites[i].Segments[c.seg]
			room := c.load - g.LoadLo
			if room <= 0 {
				continue
			}
			need := 0.0
			if useBal {
				need = math.Max(need, load-inst.TargetLoad)
			}
			if useBud && g.Cost1 > 0 {
				need = math.Max(need, (cost-inst.BudgetUSD)/g.Cost1)
			}
			d := math.Min(room, need)
			if d <= 0 {
				continue
			}
			st[i].load -= d
			load -= d
			cost -= g.Cost1 * d
		}
	}
}

// move is the next advance available to one site along its fill path: go to
// segment seg at load `to`, committing at least `min` (the all-or-nothing
// entry floor; within-segment extensions have min = current load).
type move struct {
	site     int
	seg      int
	to, min  float64
	unit     float64 // Δcost per unit Δload over the full chunk
	from     sel
	fromCost float64
}

// nextMove computes site i's next chunk from state c: extend to the top of
// the current segment, else jump to the next reachable segment (entry paid
// in full, extension to its top amortized into the chunk's unit cost).
func (r *recoverer) nextMove(i int, c sel) (move, bool) {
	s := &r.inst.Sites[i]
	var fromCost float64
	start := 0
	if c.seg >= 0 {
		g := s.Segments[c.seg]
		fromCost = g.Cost(c.load)
		eps := 1e-9 * (1 + math.Abs(g.LoadHi))
		if c.load < g.LoadHi-eps {
			m := move{site: i, seg: c.seg, to: g.LoadHi, min: c.load, from: c, fromCost: fromCost}
			m.unit = (g.Cost(m.to) - fromCost) / (m.to - c.load)
			return m, true
		}
		start = c.seg + 1
	}
	for k := start; k < len(s.Segments); k++ {
		g := s.Segments[k]
		eps := 1e-9 * (1 + math.Abs(g.LoadHi))
		if g.LoadHi <= c.load+eps {
			continue // no load gain in this segment
		}
		m := move{site: i, seg: k, to: g.LoadHi, min: math.Max(g.LoadLo, c.load), from: c, fromCost: fromCost}
		m.unit = (g.Cost(m.to) - fromCost) / (m.to - c.load)
		return m, true
	}
	return move{}, false
}

// moveHeap orders moves by unit cost (cheapest chunk first).
type moveHeap []move

func (h moveHeap) less(a, b int) bool { return h[a].unit < h[b].unit }
func (h *moveHeap) push(m move) {
	*h = append(*h, m)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}
func (h *moveHeap) pop() move {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, rch := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if rch < n && h.less(rch, small) {
			small = rch
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// fill advances st cheapest-chunk first until the balance target, the
// budget, or the fleet's moves are exhausted. For MinCostServeAll it lands
// on the target exactly when it can, taking one overshooting segment entry
// and trimming it back elsewhere if the last gap is smaller than the
// cheapest remaining entry commitment.
func (r *recoverer) fill(st []sel) {
	inst := r.inst
	maxSense := inst.Sense == MaxLoadWithinBudget
	useBal := !math.IsInf(inst.TargetLoad, 1)
	useBud := maxSense && !math.IsInf(inst.BudgetUSD, 1)

	load, cost := r.totals(st)
	var h moveHeap
	for i := range st {
		if m, ok := r.nextMove(i, st[i]); ok {
			h.push(m)
		}
	}
	// deferred holds segment entries that did not fit the remaining balance
	// headroom; the min-cost overshoot pass revisits the smallest one.
	var deferred []move
	for len(h) > 0 {
		if r.done() {
			// Deadline fired mid-fill: stop with what is placed so far. A
			// partial fill is feasible for max-load (just less of it) and is
			// rejected by candidateFrom for min-cost, both safe.
			return
		}
		if useBal && load >= inst.TargetLoad-r.balTol() {
			break
		}
		if useBud && cost >= inst.BudgetUSD-r.budTol() {
			break
		}
		m := h.pop()
		if st[m.site] != m.from {
			// Stale entry (state advanced by the overshoot pass): recompute.
			if nm, ok := r.nextMove(m.site, st[m.site]); ok {
				h.push(nm)
			}
			continue
		}
		to := m.to
		if useBal {
			if room := inst.TargetLoad - load; to > m.from.load+room {
				to = m.from.load + room
			}
		}
		g := r.inst.Sites[m.site].Segments[m.seg]
		if useBud {
			if avail := inst.BudgetUSD - cost; g.Cost(to)-m.fromCost > avail {
				if g.Cost1 <= 0 {
					continue // entry alone busts the budget; drop the move
				}
				to = (avail + m.fromCost - g.Cost0) / g.Cost1
			}
		}
		if to < m.min-1e-12*(1+m.min) {
			// The all-or-nothing entry does not fit. Other sites may still
			// have cheaper partial room; remember the entry for the min-cost
			// overshoot pass.
			deferred = append(deferred, m)
			continue
		}
		to = math.Max(to, m.min)
		dl := to - m.from.load
		dc := g.Cost(to) - m.fromCost
		if dl <= 0 {
			continue
		}
		if maxSense && dl-inst.Epsilon*dc <= 0 {
			continue // the chunk would lower the step-2 objective
		}
		st[m.site] = sel{seg: m.seg, load: to}
		load += dl
		cost += dc
		if nm, ok := r.nextMove(m.site, st[m.site]); ok {
			h.push(nm)
		}
	}

	// Min-cost must land exactly: when the last gap was smaller than every
	// remaining entry commitment, take the smallest such entry and give the
	// overshoot back from other sites' within-segment room.
	if !maxSense && useBal && load < inst.TargetLoad-r.balTol() && len(deferred) > 0 {
		bi := 0
		for j := 1; j < len(deferred); j++ {
			if deferred[j].min-deferred[j].from.load < deferred[bi].min-deferred[bi].from.load {
				bi = j
			}
		}
		m := deferred[bi]
		if st[m.site] == m.from {
			g := inst.Sites[m.site].Segments[m.seg]
			st[m.site] = sel{seg: m.seg, load: m.min}
			load += m.min - m.from.load
			cost += g.Cost(m.min) - m.fromCost
			r.giveBack(st, &load, &cost, load-inst.TargetLoad, m.site)
		}
	}
}

// Greedy plans an hour without solving anything: from the minimal state it
// fills premium load cheapest chunk first with no budget limit, then keeps
// filling up to total load (≥ premium) while the summed segment cost stays
// within budgetUSD (+Inf = no budget). It is the restoration fill of Solve
// with no subgradient loop and no polish LP, so it prices exactly what the
// segments price. It never fails: the plan may serve less than asked when
// capacity, the budget or segment entry floors stop the fill. It returns
// each site's load, 0 for a site left off.
func Greedy(sites []Site, premium, total, budgetUSD float64) []float64 {
	inst := Instance{Sites: sites, Sense: MaxLoadWithinBudget, TargetLoad: premium, BudgetUSD: math.Inf(1)}
	r := &recoverer{inst: &inst}
	st := r.minimalState()
	r.fill(st)
	inst.TargetLoad, inst.BudgetUSD = total, budgetUSD
	r.fill(st)
	loads := make([]float64, len(st))
	for i, c := range st {
		if c.seg >= 0 {
			loads[i] = c.load
		}
	}
	return loads
}

// giveBack sheds `over` units of load from within-segment room on sites
// other than keep, cheapest savings last (most expensive marginal first).
func (r *recoverer) giveBack(st []sel, load, cost *float64, over float64, keep int) {
	if over <= 0 {
		return
	}
	type room struct {
		i    int
		c1   float64
		slac float64
	}
	var rooms []room
	for i, c := range st {
		if i == keep || c.seg < 0 {
			continue
		}
		g := r.inst.Sites[i].Segments[c.seg]
		if slack := c.load - g.LoadLo; slack > 0 {
			rooms = append(rooms, room{i, g.Cost1, slack})
		}
	}
	sort.Slice(rooms, func(a, b int) bool { return rooms[a].c1 > rooms[b].c1 })
	for _, rm := range rooms {
		if over <= 0 {
			return
		}
		d := math.Min(rm.slac, over)
		st[rm.i].load -= d
		*load -= d
		*cost -= rm.c1 * d
		over -= d
	}
}

// candidateFrom checks st against the coupling rows and segment bounds and
// stamps the totals. Loads are snapped into their segment bounds first to
// shed floating-point noise.
func (r *recoverer) candidateFrom(st []sel) (candidate, bool) {
	inst := r.inst
	for i := range st {
		s := &inst.Sites[i]
		c := st[i]
		if c.seg < 0 {
			if !s.CanOff {
				return candidate{}, false
			}
			continue
		}
		g := s.Segments[c.seg]
		snapTol := 1e-7 * (1 + math.Abs(g.LoadHi))
		switch {
		case c.load < g.LoadLo-snapTol || c.load > g.LoadHi+snapTol:
			return candidate{}, false
		case c.load < g.LoadLo:
			st[i].load = g.LoadLo
		case c.load > g.LoadHi:
			st[i].load = g.LoadHi
		}
	}
	load, cost := r.totals(st)
	if inst.Sense == MinCostServeAll {
		if math.Abs(load-inst.TargetLoad) > r.balTol() {
			return candidate{}, false
		}
	} else {
		if !math.IsInf(inst.TargetLoad, 1) && load > inst.TargetLoad+r.balTol() {
			return candidate{}, false
		}
		if !math.IsInf(inst.BudgetUSD, 1) && cost > inst.BudgetUSD+r.budTol() {
			return candidate{}, false
		}
	}
	out := make([]sel, len(st))
	copy(out, st)
	return candidate{sel: out, load: load, cost: cost, obj: r.objective(load, cost)}, true
}

// polish fixes st's segment choices and re-optimizes the continuous loads
// exactly: a tiny LP — one bounded variable per running site, at most two
// rows — on the sparse revised-simplex core. This recovers most of the
// integrality gap the greedy restoration leaves behind.
//
// The LP reads nothing of st but its segment choices, so its answer is
// memoized for the rest of the Solve under those choices (seg -1 for an off
// site, whose load no caller reads): later iterates that restore to a plan
// already polished — most of them, once the multipliers settle — reuse it.
func (r *recoverer) polish(st []sel) (candidate, bool) {
	r.key = r.key[:0]
	for _, c := range st {
		r.key = binary.AppendUvarint(r.key, uint64(c.seg+1))
	}
	if p, hit := r.memo[string(r.key)]; hit {
		return p.cand, p.ok
	}
	cand, ok := r.solvePolish(st)
	if r.memo == nil {
		r.memo = make(map[string]polished)
	}
	r.memo[string(r.key)] = polished{cand, ok}
	return cand, ok
}

// solvePolish builds and solves the polish LP for st.
func (r *recoverer) solvePolish(st []sel) (candidate, bool) {
	inst := r.inst
	maxSense := inst.Sense == MaxLoadWithinBudget
	useBal := !math.IsInf(inst.TargetLoad, 1)
	useBud := maxSense && !math.IsInf(inst.BudgetUSD, 1)

	pb := lp.NewProblem()
	pb.SetMaximize(maxSense)
	idx := make([]int, len(st))
	var balTerms, budTerms []lp.Term
	fixedCost := 0.0
	for i, c := range st {
		idx[i] = -1
		if c.seg < 0 {
			continue
		}
		g := inst.Sites[i].Segments[c.seg]
		obj := g.Cost1
		if maxSense {
			obj = 1 - inst.Epsilon*g.Cost1
		}
		v := pb.AddVar(fmt.Sprintf("x%d", i), obj)
		pb.SetVarBounds(v, g.LoadLo, g.LoadHi)
		idx[i] = v
		balTerms = append(balTerms, lp.Term{Var: v, Coef: 1})
		if useBud {
			budTerms = append(budTerms, lp.Term{Var: v, Coef: g.Cost1})
		}
		fixedCost += g.Cost0
	}
	if len(balTerms) == 0 {
		return candidate{}, false
	}
	if inst.Sense == MinCostServeAll {
		pb.AddConstraint(balTerms, lp.EQ, inst.TargetLoad)
	} else if useBal {
		pb.AddConstraint(balTerms, lp.LE, inst.TargetLoad)
	}
	if useBud {
		rhs := inst.BudgetUSD - fixedCost
		if rhs < 0 {
			return candidate{}, false
		}
		pb.AddConstraint(budTerms, lp.LE, rhs)
	}
	sol := pb.Solve()
	r.polishes++
	r.pivots += sol.Pivots
	if sol.Status != lp.Optimal {
		return candidate{}, false
	}
	out := make([]sel, len(st))
	copy(out, st)
	for i, v := range idx {
		if v >= 0 {
			out[i].load = sol.X[v]
		}
	}
	return r.candidateFrom(out)
}
