// Package decomp prices fleet-scale hour decisions by Lagrangian dual
// decomposition. The hour MILP of internal/core is block-separable per site
// once its two coupling rows — the fleet balance Σλᵢ = λ and the budget
// Σ costᵢ ≤ B — are dualized: what remains is one tiny subproblem per site
// (pick a price segment and a load within it), solvable in closed form over
// the site's reachable segments. A projected-subgradient loop with
// Polyak-style step sizing drives the two multipliers toward the dual
// optimum; every iterate doubles as a primal seed for a greedy restoration
// pass followed by an LP polish on the sparse revised-simplex core. The
// result carries both the best feasible primal and the best dual bound, so
// callers see a proven primal–dual gap instead of an unquantified heuristic.
// Greedy exposes the restoration fill alone: the controller's solver-free
// answer when the exact solve fails.
//
// The exact MILP stays the oracle at small N (internal/core routes to this
// package only above Options.DecomposeThreshold); at N in the hundreds the
// decomposition answers in milliseconds where branch-and-bound hits its
// node or time limit.
package decomp

import (
	"fmt"
	"math"
	"time"
)

// Sense selects which hour decision the instance encodes.
type Sense int

// Instance senses.
const (
	// MinCostServeAll is step 1 of the two-step algorithm: serve exactly
	// TargetLoad at minimum cost. The dual is a lower bound on the optimum.
	MinCostServeAll Sense = iota
	// MaxLoadWithinBudget is step 2: serve as much load as possible, at most
	// TargetLoad, spending at most BudgetUSD, with an Epsilon cost tie-break.
	// The dual is an upper bound on the optimum.
	MaxLoadWithinBudget
)

// String names the sense.
func (s Sense) String() string {
	switch s {
	case MinCostServeAll:
		return "min-cost"
	case MaxLoadWithinBudget:
		return "max-load"
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Segment is one reachable price segment of a site: while the site's load
// sits in [LoadLo, LoadHi] it pays Rate, so cost and power are affine in the
// load. The segment index Seg refers to the originating price step (for
// traceability; gaps are fine — unreachable steps are simply absent).
type Segment struct {
	Seg            int
	LoadLo, LoadHi float64
	// Cost0 + Cost1·load is the segment's hourly cost in USD.
	Cost0, Cost1 float64
	// Power0 + Power1·load is the site's predicted draw in MW.
	Power0, Power1 float64
	// Rate is the segment's price in USD/MWh (what Cost is built from).
	Rate float64
}

// Cost evaluates the segment's hourly cost at the given load.
func (g Segment) Cost(l float64) float64 { return g.Cost0 + g.Cost1*l }

// Power evaluates the segment's predicted draw at the given load.
func (g Segment) Power(l float64) float64 { return g.Power0 + g.Power1*l }

// Site is one data center's hour model: a union of reachable price segments,
// plus an optional off state (load 0, cost 0, power 0). Segments must be
// sorted by LoadLo.
type Site struct {
	Name     string
	Segments []Segment
	// CanOff permits the off state. A site with CanOff=false must run in one
	// of its segments (the paper-hour family's Σz = 1).
	CanOff bool
}

// maxLoad returns the largest load the site can carry.
func (s *Site) maxLoad() float64 {
	m := 0.0
	for _, g := range s.Segments {
		if g.LoadHi > m {
			m = g.LoadHi
		}
	}
	return m
}

// Instance is one hour decision over the fleet.
type Instance struct {
	Sites []Site
	Sense Sense
	// TargetLoad is the hour's workload λ: an equality for MinCostServeAll,
	// an upper bound for MaxLoadWithinBudget (+Inf = no balance row).
	TargetLoad float64
	// BudgetUSD bounds Σ cost for MaxLoadWithinBudget (+Inf = no budget row).
	// For MinCostServeAll it is a cutoff (+Inf = none): once the loop holds
	// a feasible primal, a dual bound above BudgetUSD stops it with Status
	// OverBudget.
	BudgetUSD float64
	// Epsilon is the cost tie-break weight in the MaxLoadWithinBudget
	// objective Σ load − ε·Σ cost (0 = pure load maximization).
	Epsilon float64
}

func (inst *Instance) validate() error {
	if math.IsNaN(inst.TargetLoad) || inst.TargetLoad < 0 {
		return fmt.Errorf("decomp: bad target load %v", inst.TargetLoad)
	}
	if inst.Sense == MinCostServeAll && math.IsInf(inst.TargetLoad, 1) {
		return fmt.Errorf("decomp: min-cost needs a finite target load")
	}
	if math.IsNaN(inst.BudgetUSD) || inst.BudgetUSD < 0 {
		return fmt.Errorf("decomp: bad budget %v", inst.BudgetUSD)
	}
	if math.IsNaN(inst.Epsilon) || inst.Epsilon < 0 {
		return fmt.Errorf("decomp: bad epsilon %v", inst.Epsilon)
	}
	if len(inst.Sites) == 0 {
		return fmt.Errorf("decomp: no sites")
	}
	for i := range inst.Sites {
		s := &inst.Sites[i]
		if !s.CanOff && len(s.Segments) == 0 {
			return fmt.Errorf("decomp: site %d (%s) has no segments and no off state", i, s.Name)
		}
		prev := math.Inf(-1)
		for k, g := range s.Segments {
			switch {
			case math.IsNaN(g.LoadLo) || math.IsNaN(g.LoadHi) || g.LoadLo < 0:
				return fmt.Errorf("decomp: site %d segment %d: bad load bounds [%v, %v]", i, k, g.LoadLo, g.LoadHi)
			case g.LoadHi < g.LoadLo:
				return fmt.Errorf("decomp: site %d segment %d: empty load range [%v, %v]", i, k, g.LoadLo, g.LoadHi)
			case math.IsNaN(g.Cost0) || math.IsNaN(g.Cost1) || math.IsInf(g.Cost0, 0) || math.IsInf(g.Cost1, 0):
				return fmt.Errorf("decomp: site %d segment %d: bad cost coefficients", i, k)
			case g.LoadLo < prev:
				return fmt.Errorf("decomp: site %d: segments not sorted by LoadLo", i)
			}
			prev = g.LoadLo
		}
	}
	return nil
}

// normalize rescales the instance so the largest load and cost magnitudes
// are 1 — a pure change of units. Without it the Polyak step is conditioned
// by whichever coupling row has the larger residual: core instances carry
// loads in req/h (~1e12) against costs in USD (~1e3), so ‖g‖² is dominated
// by the balance row and the budget multiplier can never reach its useful
// magnitude within the iteration cap. Power coefficients absorb the load
// scale so Segment.Power still reports original MW; the returned factors
// undo the scaling on the result.
func (inst *Instance) normalize() (Instance, float64, float64) {
	sL, sC := 0.0, 0.0
	for i := range inst.Sites {
		for _, g := range inst.Sites[i].Segments {
			if g.LoadHi > sL {
				sL = g.LoadHi
			}
			for _, l := range [2]float64{g.LoadLo, g.LoadHi} {
				if c := math.Abs(g.Cost(l)); c > sC {
					sC = c
				}
			}
		}
	}
	if sL <= 0 {
		sL = 1
	}
	if sC <= 0 {
		sC = 1
	}
	out := *inst
	out.Sites = make([]Site, len(inst.Sites))
	for i, s := range inst.Sites {
		ns := s
		ns.Segments = make([]Segment, len(s.Segments))
		for k, g := range s.Segments {
			g.LoadLo /= sL
			g.LoadHi /= sL
			g.Cost0 /= sC
			g.Cost1 *= sL / sC
			g.Power1 *= sL
			ns.Segments[k] = g
		}
		out.Sites[i] = ns
	}
	if !math.IsInf(out.TargetLoad, 1) {
		out.TargetLoad /= sL
	}
	if !math.IsInf(out.BudgetUSD, 1) {
		out.BudgetUSD /= sC
	}
	// Objective load − ε·cost divides through by sL, so ε picks up sC/sL.
	out.Epsilon *= sC / sL
	return out, sL, sC
}

// Subgradient loop settings.
const (
	// maxIters caps the subgradient iterations.
	maxIters = 160
	// theta0 is the initial Polyak step scale. The loop halves its scale
	// after several consecutive iterations without dual progress.
	theta0 = 1.0
)

// Options tune a Solve. The zero value is ready to use.
type Options struct {
	// GapTol is the relative primal–dual gap at which the loop declares
	// convergence; 0 → 1e-3.
	GapTol float64
	// Deadline bounds wall-clock time; 0 → unbounded. An expiring solve
	// answers with its best primal and bound so far.
	Deadline time.Duration
	// Cancel aborts the loop early when closed (a context's Done channel).
	Cancel <-chan struct{}
}

func (o Options) gapTol() float64 {
	if o.GapTol <= 0 {
		return 1e-3
	}
	return o.GapTol
}

// Status reports how a Solve ended.
type Status int

// Solve outcomes.
const (
	// Converged: the primal–dual gap closed below Options.GapTol.
	Converged Status = iota
	// GapLimit: the iteration, deadline or cancellation budget ran out; the
	// best feasible primal and dual bound found so far are returned.
	GapLimit
	// Infeasible: no feasible primal exists (e.g. the target load exceeds
	// fleet capacity, or mandatory minimum loads overshoot it).
	Infeasible
	// OverBudget (MinCostServeAll only): the dual bound proved the minimum
	// cost above Instance.BudgetUSD, so the loop stopped there. The result
	// holds the feasible primal found by then, which proves the target
	// servable, and its gap.
	OverBudget
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Converged:
		return "converged"
	case GapLimit:
		return "gap-limit"
	case Infeasible:
		return "infeasible"
	case OverBudget:
		return "over-budget"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// SiteAlloc is the recovered primal plan for one site.
type SiteAlloc struct {
	Load    float64
	PowerMW float64
	CostUSD float64
	// Rate is the price level of the chosen segment (0 when off).
	Rate float64
	// Seg is the chosen segment's price-step index (-1 when off).
	Seg int
	On  bool
}

// Result is the outcome of one decomposition solve.
type Result struct {
	Status Status
	// Sites is the best feasible primal found (empty when Infeasible).
	Sites []SiteAlloc
	// Load and CostUSD are the primal's totals.
	Load    float64
	CostUSD float64
	// Objective is the primal objective in the instance's sense
	// (MinCostServeAll: Σ cost; MaxLoadWithinBudget: Σ load − ε·Σ cost).
	Objective float64
	// DualBound is the best Lagrangian bound: a lower bound on the optimum
	// for MinCostServeAll, an upper bound for MaxLoadWithinBudget.
	DualBound float64
	// Gap is the relative primal–dual gap |DualBound − Objective| / max(1, |Objective|).
	Gap float64
	// Iterations counts subgradient iterations performed.
	Iterations int
	// LPPivots counts simplex pivots across the primal polish LPs.
	LPPivots int
	// Polishes counts polish LPs solved.
	Polishes int
	Elapsed  time.Duration
}

// choice is one site subproblem's answer under the current multipliers.
type choice struct {
	seg  int // -1 = off
	load float64
	val  float64 // wL·load − wC·cost
}

// bestChoice solves one site's Lagrangian subproblem max wL·load − wC·cost
// over the site's segments ∪ off state. Within a segment the objective is
// linear in the load, so the maximum sits at a segment endpoint — the whole
// "DP over reachable price segments" collapses to 2·|segments| evaluations.
func bestChoice(s *Site, wL, wC float64) choice {
	best := choice{seg: -1}
	if !s.CanOff {
		best.val = math.Inf(-1)
	}
	for k := range s.Segments {
		g := &s.Segments[k]
		for _, l := range [2]float64{g.LoadLo, g.LoadHi} {
			if v := wL*l - wC*g.Cost(l); v > best.val {
				best = choice{seg: k, load: l, val: v}
			}
		}
	}
	return best
}

// Solve runs the dual-decomposition loop on the instance: dualize the
// coupling rows, iterate per-site subproblems and a projected subgradient
// step on the multipliers (Polyak sizing against the best feasible primal),
// and recover a feasible primal from every iterate. It returns the best
// primal together with the best dual bound and their gap.
func Solve(inst Instance, opt Options) (Result, error) {
	start := time.Now()
	if err := inst.validate(); err != nil {
		return Result{}, err
	}
	var sL, sC float64
	inst, sL, sC = inst.normalize()
	n := len(inst.Sites)
	maxSense := inst.Sense == MaxLoadWithinBudget
	useBal := !math.IsInf(inst.TargetLoad, 1)
	useBud := maxSense && !math.IsInf(inst.BudgetUSD, 1)

	var deadline time.Time
	if opt.Deadline > 0 {
		deadline = start.Add(opt.Deadline)
	}
	expired := func() bool {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return true
		}
		select {
		case <-opt.Cancel:
			return true
		default:
			return false
		}
	}

	res := Result{Status: GapLimit}
	rec := &recoverer{inst: &inst, expired: expired}

	// Bootstrap a feasible primal from the minimal state (everything off or
	// at its cheapest mandatory minimum), greedily filled and polished —
	// the Polyak numerator needs a primal value to aim at.
	var best candidate
	haveBest := false
	if c, ok := rec.recoverFrom(rec.minimalState()); ok {
		best, haveBest = c, true
	}

	// Multiplier initialization. For min-cost the balance multiplier is the
	// marginal cost of load; the bootstrap primal's average cost per unit is
	// a cheap, scale-correct first guess.
	var mu, nu float64
	if !maxSense && haveBest && inst.TargetLoad > 0 {
		mu = best.cost / inst.TargetLoad
	}

	dualBest := math.Inf(1)
	if !maxSense {
		dualBest = math.Inf(-1)
	}
	theta := theta0
	stall := 0
	const stallLimit = 6

	choices := make([]choice, n)

	for it := 1; it <= maxIters; it++ {
		res.Iterations = it
		if expired() {
			break
		}
		var wL, wC float64
		if maxSense {
			wL, wC = 1-mu, inst.Epsilon+nu
		} else {
			wL, wC = mu, 1
		}
		for i := range inst.Sites {
			choices[i] = bestChoice(&inst.Sites[i], wL, wC)
		}
		var sumL, sumC, sumV float64
		for i := range choices {
			c := choices[i]
			sumV += c.val
			if c.seg >= 0 {
				sumL += c.load
				sumC += inst.Sites[i].Segments[c.seg].Cost(c.load)
			}
		}
		// Lagrangian dual value at the current multipliers.
		var dual float64
		if maxSense {
			dual = sumV
			if useBal {
				dual += mu * inst.TargetLoad
			}
			if useBud {
				dual += nu * inst.BudgetUSD
			}
			if dual < dualBest {
				dualBest, stall = dual, 0
			} else {
				stall++
			}
		} else {
			dual = mu*inst.TargetLoad - sumV
			if dual > dualBest {
				dualBest, stall = dual, 0
			} else {
				stall++
			}
			if haveBest && dualBest > inst.BudgetUSD {
				res.Status = OverBudget
				break
			}
		}
		if stall >= stallLimit {
			theta, stall = math.Max(theta/2, 1e-4), 0
		}

		// Primal recovery from this iterate's subproblem selections.
		if c, ok := rec.recoverFrom(stateFromChoices(choices)); ok {
			if !haveBest || c.betterThan(best, maxSense) {
				best, haveBest = c, true
			}
		}
		if haveBest {
			res.Gap = relGap(dualBest, best.obj, maxSense)
			if res.Gap <= opt.gapTol() {
				res.Status = Converged
				break
			}
		}

		// Projected subgradient step with Polyak sizing
		// t = θ·(dual − primal)/‖g‖² toward closing the gap.
		var gMu, gNu float64
		if useBal {
			gMu = inst.TargetLoad - sumL
		}
		if useBud {
			gNu = inst.BudgetUSD - sumC
		}
		g2 := gMu*gMu + gNu*gNu
		if g2 <= 1e-30 {
			// Zero subgradient: the multipliers are dual-optimal; further
			// iterations cannot move the bound.
			break
		}
		var target float64
		if haveBest {
			if maxSense {
				target = dual - best.obj
			} else {
				target = best.obj - dual
			}
			if target <= 0 {
				break // bound meets the primal: numerically converged
			}
		} else {
			target = 0.05 * (1 + math.Abs(dual))
		}
		t := theta * target / g2
		if maxSense {
			mu = math.Max(0, mu-t*gMu)
			nu = math.Max(0, nu-t*gNu)
		} else {
			mu += t * gMu
		}
	}

	res.LPPivots, res.Polishes = rec.pivots, rec.polishes
	// Undo the unit normalization: the objective (and its bound) carries the
	// load unit under MaxLoadWithinBudget and the cost unit under
	// MinCostServeAll; the gap is relative and needs no unscaling.
	objUnit := sL
	if !maxSense {
		objUnit = sC
	}
	res.DualBound = dualBest * objUnit
	res.Elapsed = time.Since(start)
	if !haveBest {
		res.Status = Infeasible
		res.Gap = math.Inf(1)
		return res, nil
	}
	res.Gap = relGap(dualBest, best.obj, maxSense)
	if res.Status == GapLimit && res.Gap <= opt.gapTol() {
		res.Status = Converged
	}
	res.Load, res.CostUSD = best.load*sL, best.cost*sC
	res.Objective = best.obj * objUnit
	res.Sites = make([]SiteAlloc, n)
	for i, c := range best.sel {
		a := SiteAlloc{Seg: -1}
		if c.seg >= 0 {
			g := inst.Sites[i].Segments[c.seg]
			a = SiteAlloc{
				Load:    c.load * sL,
				PowerMW: g.Power(c.load), // Power1 absorbed sL: already MW
				CostUSD: g.Cost(c.load) * sC,
				Rate:    g.Rate,
				Seg:     g.Seg,
				On:      true,
			}
		}
		res.Sites[i] = a
	}
	return res, nil
}

// relGap is the relative primal–dual gap, clamped at 0 (floating-point noise
// can push the bound a hair past the primal).
func relGap(dual, primal float64, maxSense bool) float64 {
	d := dual - primal
	if !maxSense {
		d = -d
	}
	if d <= 0 || math.IsInf(dual, 0) {
		if math.IsInf(dual, 0) {
			return math.Inf(1)
		}
		return 0
	}
	return d / math.Max(1, math.Abs(primal))
}
