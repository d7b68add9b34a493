package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"billcap/internal/decomp"
	"billcap/internal/lp"
	"billcap/internal/lpparse"
	"billcap/internal/milp"
	"billcap/internal/piecewise"
)

// ErrInfeasible reports that no allocation satisfies the constraints (e.g.
// the hour's arrivals exceed what the fleet can carry within SLA and power
// caps).
var ErrInfeasible = errors.New("core: no feasible allocation")

// errOverBudget reports that a step-1 solve stopped at its cutoff: a bound
// proved the hour's minimum cost over budget (see stepOneOptions). The
// decision it comes with carries only the bases to hand on.
var errOverBudget = errors.New("core: step-1 bound over budget")

// SolverStats aggregates branch-and-bound effort across the MILP solves of
// one decision.
type SolverStats struct {
	Solves int
	Nodes  int
	// LPIterations counts simplex pivots across every LP relaxation solved
	// for the decision (all cores).
	LPIterations int
	Incumbents   int
	// Timeouts counts solves that hit their wall-clock deadline and
	// answered with a best-effort incumbent instead of a proven optimum.
	Timeouts int
	// WallTime is the wall-clock time spent inside MILP solves.
	WallTime time.Duration
	// LPRefactorizations and LPBasisUpdates are the sparse LP core's basis
	// work — LU rebuilds and eta-file updates — across the decision's
	// relaxations. A relaxation the dense fallback answered adds to neither.
	LPRefactorizations int
	LPBasisUpdates     int
	// WarmStarts counts the MILP solves whose root LP finished from the
	// basis carried from an earlier hour (HourInput.Warm). Omitted from JSON
	// when zero, so the ladder state journaled by an hour that started cold
	// (a tariff hour, the first after a restart) keeps its bytes.
	WarmStarts int `json:",omitempty"`
	// Cutoffs counts step-1 solves that stopped at their budget cutoff: a
	// bound proved the hour over budget, so the search (or decomposition
	// loop) ended before its answer, which step 2 would have replaced.
	// Omitted from JSON when zero, like WarmStarts.
	Cutoffs int `json:",omitempty"`
	// DecompSolves counts hour solves routed to the dual-decomposition path
	// (Options.Decompose above the fleet-size threshold); all stay 0 on the
	// exact MILP path.
	DecompSolves int
	// DecompIterations is the total subgradient iterations across the
	// decision's decomposition solves.
	DecompIterations int
	// DecompGap is the worst relative primal–dual gap any decomposition
	// solve of the decision proved (0 = every solve closed its gap), a
	// solve stopped at its cutoff aside.
	DecompGap float64
	// DecompDualBound is the latest decomposition solve's Lagrangian bound:
	// a lower bound on cost for min-cost solves, an upper bound on the
	// throughput objective for budget-capped solves.
	DecompDualBound float64
}

func (st *SolverStats) add(sol milp.Solution) {
	st.Solves++
	st.Nodes += sol.Nodes
	st.LPIterations += sol.Pivots
	st.Incumbents += sol.Incumbents
	st.WallTime += sol.Elapsed
	st.LPRefactorizations += sol.LPRefactorizations
	st.LPBasisUpdates += sol.LPBasisUpdates
	if sol.RootWarm {
		st.WarmStarts++
	}
	switch sol.Status {
	case milp.TimeLimit:
		st.Timeouts++
	case milp.Cutoff:
		st.Cutoffs++
	}
}

// addDecomp folds one dual-decomposition solve into the stats. The polish
// LPs' pivots count toward LPIterations like any other relaxation work. A
// solve stopped at its cutoff adds no gap: no answer of it is used.
func (st *SolverStats) addDecomp(r decomp.Result) {
	st.DecompSolves++
	st.DecompIterations += r.Iterations
	st.LPIterations += r.LPPivots
	st.WallTime += r.Elapsed
	if r.Status == decomp.OverBudget {
		st.Cutoffs++
		return
	}
	if !math.IsInf(r.Gap, 1) && r.Gap > st.DecompGap {
		st.DecompGap = r.Gap
	}
	st.DecompDualBound = r.DualBound
}

// Accumulate folds another decision's stats into st (simulators and
// hierarchical coordinators sum effort across many decisions).
func (st *SolverStats) Accumulate(o SolverStats) {
	st.Solves += o.Solves
	st.Nodes += o.Nodes
	st.LPIterations += o.LPIterations
	st.Incumbents += o.Incumbents
	st.Timeouts += o.Timeouts
	st.WallTime += o.WallTime
	st.LPRefactorizations += o.LPRefactorizations
	st.LPBasisUpdates += o.LPBasisUpdates
	st.WarmStarts += o.WarmStarts
	st.Cutoffs += o.Cutoffs
	st.DecompSolves += o.DecompSolves
	st.DecompIterations += o.DecompIterations
	if o.DecompGap > st.DecompGap {
		st.DecompGap = o.DecompGap
	}
	if o.DecompSolves > 0 {
		st.DecompDualBound = o.DecompDualBound
	}
}

// SiteAlloc is the optimizer's plan for one site in one hour.
type SiteAlloc struct {
	// Lambda is the workload routed to the site, requests/hour.
	Lambda float64
	// PowerMW is the optimizer's predicted IT draw under its affine model.
	PowerMW float64
	// PriceUSDPerMWh is the price level the optimizer expects to pay for
	// grid energy (the RT price under two-settlement).
	PriceUSDPerMWh float64
	// CostUSD is the site's predicted hourly cost attributable to the
	// decision: the energy charge plus the demand-charge increment.
	CostUSD float64
	// On reports whether the site is powered at all.
	On bool

	// GridMW is the metered grid draw: IT power + battery charge −
	// battery discharge. Equal to PowerMW when the site has no battery.
	GridMW float64
	// ChargeMW and DischargeMW are the hour's planned battery actions.
	ChargeMW, DischargeMW float64
	// EnergyUSD and DemandUSD split CostUSD into tariff components.
	EnergyUSD, DemandUSD float64

	// ClassLambda is the load on each server class of a multi-class site,
	// keyed like dcmodel.Site.Plans (efficiency order); nil for a
	// one-class site.
	ClassLambda []float64 `json:",omitempty"`
}

// Step identifies which branch of the two-step algorithm produced a decision.
type Step int

// Decision branches.
const (
	// StepCostMin: step 1 alone fit the budget (or capping was disabled).
	StepCostMin Step = iota
	// StepBudgetCapped: step 2 admitted all premium and part of the ordinary
	// traffic within the budget.
	StepBudgetCapped
	// StepPremiumOnly: even ordinary-free service exceeded the budget; the
	// budget is knowingly violated to keep premium QoS (paper §V-B).
	StepPremiumOnly
	// StepOverCapacity: arrivals exceeded fleet capacity; the maximum
	// carryable load is served irrespective of budget.
	StepOverCapacity
)

// String names the step.
func (st Step) String() string {
	switch st {
	case StepCostMin:
		return "cost-min"
	case StepBudgetCapped:
		return "budget-capped"
	case StepPremiumOnly:
		return "premium-only"
	case StepOverCapacity:
		return "over-capacity"
	}
	return fmt.Sprintf("Step(%d)", int(st))
}

// Degrade identifies which rung of the graceful-degradation ladder produced
// a decision. The real-time controller must answer every invocation period,
// so when the optimal path fails it steps down the ladder instead of
// returning nothing; the rung is recorded for traces and metrics.
type Degrade int

// Ladder rungs, in descending order of answer quality.
const (
	// DegradeNone: the MILP proved optimality within its budget.
	DegradeNone Degrade = iota
	// DegradeTimeLimit: a solve hit its wall-clock deadline; the decision is
	// its best feasible incumbent, not a proven optimum.
	DegradeTimeLimit
	// DegradeFallback: the MILP failed (panic, error, forced fault) and the
	// greedy dispatcher produced the plan.
	DegradeFallback
	// DegradeAudit: the MILP/decomp path answered, but the independent
	// feasibility audit rejected the allocation (capacity, balance, budget or
	// NaN violation); the greedy dispatcher's plan was used instead. Same
	// answer quality as DegradeFallback, but the cause — a wrong-but-plausible
	// solver answer — is worth distinguishing in traces and metrics.
	DegradeAudit
	// DegradeStale: both solvers failed; a recent last-known-good decision
	// was reused within the staleness bound.
	DegradeStale
	// DegradeShed: everything failed with nothing to reuse; the controller
	// sheds the hour's load (all sites off) rather than crash.
	DegradeShed
)

// String names the rung.
func (d Degrade) String() string {
	switch d {
	case DegradeNone:
		return "none"
	case DegradeTimeLimit:
		return "time-limit"
	case DegradeFallback:
		return "fallback"
	case DegradeAudit:
		return "audit-reject"
	case DegradeStale:
		return "stale"
	case DegradeShed:
		return "shed"
	}
	return fmt.Sprintf("Degrade(%d)", int(d))
}

// Decision is the capper's output for one hour.
type Decision struct {
	Sites []SiteAlloc
	// PredictedCostUSD is the hour's predicted bill under the optimizer's
	// models: energy + demand-charge increment + two-settlement position.
	// (Energy-only inputs reduce it to the paper's Σ Pr·p.)
	PredictedCostUSD float64
	// EnergyCostUSD, DemandChargeUSD and SettlementUSD decompose
	// PredictedCostUSD by tariff component. SettlementUSD is the
	// decision-independent day-ahead position and can be negative.
	EnergyCostUSD, DemandChargeUSD, SettlementUSD float64
	// Served splits the admitted traffic.
	Served, ServedPremium, ServedOrdinary float64
	Step                                  Step
	// Degraded records which ladder rung produced the decision
	// (DegradeNone for a clean optimal solve).
	Degraded Degrade
	Solver   SolverStats
	// Warm is what the next hour should start from (see RootBases); never
	// marshaled, so journaled decisions keep their bytes.
	Warm RootBases `json:"-"`
}

// siteVars holds the MILP variable handles of one site.
type siteVars struct {
	x   int // scaled workload
	y   int // on/off binary
	enc piecewise.Encoded

	// Tariff-engine variables, −1 when absent.
	chg  int // battery charge draw, MW
	dis  int // battery discharge, MW
	peak int // demand-charge exceedance above the ledger's peak-so-far, MW

	// Per-class scaled loads and activation binaries, keyed like the site's
	// plans; nil for a one-class site.
	cx, cy []int
}

// appendIT appends the site's IT draw negated to row: −a·scale·x − b·y, or
// on a multi-class site −Σ (a_c·scale·x_c + b_c·y_c).
func (sv siteVars) appendIT(row []lp.Term, sm siteModel, scale float64) []lp.Term {
	if !sm.multi() {
		pl := sm.plans[0]
		return append(row, lp.Term{Var: sv.x, Coef: -pl.A * scale}, lp.Term{Var: sv.y, Coef: -pl.B})
	}
	for c, pl := range sm.plans {
		row = append(row, lp.Term{Var: sv.cx[c], Coef: -pl.A * scale}, lp.Term{Var: sv.cy[c], Coef: -pl.B})
	}
	return row
}

// addClasses gives a multi-class site one load and one activation binary
// per class: x = Σ x_c, x_c ≤ min(M_c, λ)·y_c (the site's big-M tightening
// applied per class), and y_c ≤ y ≤ Σ y_c, so the site is on exactly when
// some class is.
func addClasses(m *milp.Problem, sv *siteVars, sm siteModel, scale, maxLoad float64) {
	name := sm.site.DC.Name
	sum := []lp.Term{{Var: sv.x, Coef: 1}}
	anyOn := []lp.Term{{Var: sv.y, Coef: -1}}
	for _, pl := range sm.plans {
		x := m.AddVar(name+"."+pl.Class.Name+".x", 0)
		y := m.AddBinVar(name+"."+pl.Class.Name+".y", 0)
		m.AddConstraint([]lp.Term{
			{Var: x, Coef: 1},
			{Var: y, Coef: -math.Min(pl.MaxLambda, maxLoad) / scale},
		}, lp.LE, 0)
		m.AddConstraint([]lp.Term{{Var: y, Coef: 1}, {Var: sv.y, Coef: -1}}, lp.LE, 0)
		sum = append(sum, lp.Term{Var: x, Coef: -1})
		anyOn = append(anyOn, lp.Term{Var: y, Coef: 1})
		sv.cx = append(sv.cx, x)
		sv.cy = append(sv.cy, y)
	}
	m.AddConstraint(sum, lp.EQ, 0)
	m.AddConstraint(anyOn, lp.GE, 0)
}

// lambdaScale returns the scaling that keeps workload variables around ≤1e3
// so the tableau mixes well with MW- and binary-magnitude rows.
func lambdaScale(totalLambda float64) float64 {
	return math.Max(1, totalLambda/1e3)
}

// buildBase assembles the MILP both steps share: per-site workload and on/off
// variables, the affine power link, capacity rows and the price encoding.
// maxLoad is the hour's total workload, which tightens the on/off big-M: the
// raw site capacity can be ~1e4× the scaled workload for light hours, wide
// enough that a y within integrality tolerance of zero still licenses the
// whole hour's load (an "all sites off" answer that serves everything).
// min(capacity, hour's load) keeps the link coefficient at the workload's
// own magnitude, so y is forced to an honest 1 whenever x carries load.
func (s *System) buildBase(in HourInput, scale, maxLoad float64) (*milp.Problem, []siteVars, error) {
	m := milp.NewProblem()
	vars := make([]siteVars, len(s.Sites))
	for i, sm := range s.models {
		name := sm.site.DC.Name
		x := m.AddVar(name+".x", 0)
		y := m.AddBinVar(name+".y", 0)
		enc, err := piecewise.Encode(m, s.viewFn(i).Fn, in.DemandMW[i],
			sm.site.DC.PowerCapMW, sm.site.DC.RoundingSlackMW(), name)
		if err != nil {
			return nil, nil, fmt.Errorf("core: site %s: %w", name, err)
		}
		// Exactly one price segment is active iff the site is on.
		sel := append(enc.SelectorTerms(), lp.Term{Var: y, Coef: -1})
		m.AddConstraint(sel, lp.EQ, 0)
		sv := siteVars{x: x, y: y, enc: enc, chg: -1, dis: -1, peak: -1}
		if sm.multi() {
			addClasses(m, &sv, sm, scale, maxLoad)
		}
		// Grid link: the encoded power variable is the *metered* draw (that
		// is what the tariff and the supplier cap see). Without a battery it
		// equals the IT draw and this is the paper's affine power link
		// p − a·scale·x − b·y = 0; with one it is p − a·scale·x − b·y − c + g = 0.
		link := sv.appendIT(make([]lp.Term, 1, 5), sm, scale)
		link[0] = lp.Term{Var: enc.Power, Coef: 1}
		if bat := in.battery(i); bat.active() && !in.SiteDown(i) {
			// Charge/discharge bounded natively by rate, room and charge:
			// η·c ≤ capacity − SoC and g ≤ SoC make any within-bounds plan
			// realizable by battery.Battery without inter-hour rows.
			room := math.Max(0, bat.CapacityMWh-bat.SoCMWh)
			sv.chg = m.AddVar(name+".bchg", 0)
			m.SetVarBounds(sv.chg, 0, math.Min(bat.MaxChargeMW, room/bat.Efficiency))
			sv.dis = m.AddVar(name+".bdis", 0)
			m.SetVarBounds(sv.dis, 0, math.Min(bat.MaxDischargeMW, bat.SoCMWh))
			link = append(link,
				lp.Term{Var: sv.chg, Coef: -1},
				lp.Term{Var: sv.dis, Coef: 1})
			// No export: the discharge can at most offset the IT draw
			// (g ≤ a·scale·x + b·y); the meter never runs backwards.
			m.AddConstraint(sv.appendIT([]lp.Term{{Var: sv.dis, Coef: 1}}, sm, scale), lp.LE, 0)
		}
		m.AddConstraint(link, lp.EQ, 0)
		if in.DemandChargeUSDPerMW > 0 {
			// Demand-charge exceedance: e ≥ grid − peak-so-far, e ≥ 0. The
			// objective prices e at the demand rate, so e settles at
			// max(0, grid − peak) — the hour pays only for raising the
			// billing-period peak.
			sv.peak = m.AddVar(name+".peak", 0)
			m.AddConstraint([]lp.Term{
				{Var: enc.Power, Coef: 1},
				{Var: sv.peak, Coef: -1},
			}, lp.LE, in.peak(i))
		}
		// Capacity: x ≤ min(xmax, λ)·y links load to the on/off state, and
		// xmax, the cap walk, keeps the IT draw within the cap less the
		// rounding slack. A multi-class site's class rows also bound each
		// class by its SLA ceiling.
		xmax := math.Min(sm.maxLambda, maxLoad)
		m.AddConstraint([]lp.Term{
			{Var: x, Coef: 1},
			{Var: y, Coef: -xmax / scale},
		}, lp.LE, 0)
		if in.SiteDown(i) {
			// Outage: force the site off; the capacity row then pins x = 0.
			m.AddConstraint([]lp.Term{{Var: y, Coef: 1}}, lp.EQ, 0)
		}
		vars[i] = sv
	}
	return m, vars, nil
}

// costTerms collects the hour's real-money cost terms: the energy charge —
// Σᵢ Σₖ rate·p under spot settlement, RTᵢ·gridᵢ under two-settlement — plus
// the demand-charge exceedance terms. These are what the budget row bounds.
// The two-settlement position (DA−RT)·C is a constant handled by the caller.
func (s *System) costTerms(vars []siteVars, in HourInput) []lp.Term {
	var out []lp.Term
	for i, v := range vars {
		if in.twoSettlement() {
			out = append(out, lp.Term{Var: v.enc.Power, Coef: in.RTPriceUSDPerMWh[i]})
		} else {
			out = append(out, v.enc.CostTerms()...)
		}
		if v.peak >= 0 {
			out = append(out, lp.Term{Var: v.peak, Coef: in.DemandChargeUSDPerMW})
		}
	}
	return out
}

// batteryValueTerms prices stored energy in the objective: discharging g MW
// spends ν·g of banked value, charging c MW banks ν·η·c. Not money — they
// never enter the budget row — but they are what makes the battery arbitrage
// instead of draining on sight.
func batteryValueTerms(vars []siteVars, in HourInput) []lp.Term {
	var out []lp.Term
	for i, v := range vars {
		if v.chg < 0 {
			continue
		}
		bat := in.battery(i)
		if bat.ValueUSDPerMWh <= 0 {
			continue
		}
		out = append(out,
			lp.Term{Var: v.dis, Coef: bat.ValueUSDPerMWh},
			lp.Term{Var: v.chg, Coef: -bat.ValueUSDPerMWh * bat.Efficiency})
	}
	return out
}

// decisionFrom extracts per-site allocations from a solved MILP. Cost
// components are re-derived from the solution *values* (rate × grid,
// rate × max(0, grid − peak)) rather than read off objective terms, so the
// claims the audit re-checks are exact by construction.
func (s *System) decisionFrom(sol milp.Solution, vars []siteVars, scale float64, in HourInput) Decision {
	d := Decision{Sites: make([]SiteAlloc, len(vars))}
	for i, v := range vars {
		lam := sol.X[v.x] * scale
		if lam < 0 {
			lam = 0
		}
		on := sol.X[v.y] > 0.5
		if !on {
			lam = 0
		}
		alloc := SiteAlloc{Lambda: lam, On: on}
		if v.cx != nil {
			alloc.ClassLambda = make([]float64, len(v.cx))
		}
		if on {
			for c, xv := range v.cx {
				if sol.X[v.cy[c]] > 0.5 {
					alloc.ClassLambda[c] = math.Max(0, sol.X[xv]*scale)
				}
			}
			// Every power variable is nonnegative in the model, but the LP
			// may return one at a tolerance-level negative (−1e-18 to
			// −1e-10 when a discharge covers the whole IT draw). Clamp them
			// all, so no claim reads as a negative draw or charge.
			alloc.GridMW = math.Max(0, sol.X[v.enc.Power])
			if v.chg >= 0 {
				alloc.ChargeMW = math.Max(0, sol.X[v.chg])
				alloc.DischargeMW = math.Max(0, sol.X[v.dis])
			}
			alloc.PowerMW = alloc.GridMW - alloc.ChargeMW + alloc.DischargeMW
			if in.twoSettlement() {
				alloc.PriceUSDPerMWh = in.RTPriceUSDPerMWh[i]
				alloc.EnergyUSD = alloc.PriceUSDPerMWh * alloc.GridMW
			} else {
				for j, pv := range v.enc.SegPower {
					alloc.EnergyUSD += v.enc.SegRate[j] * math.Max(0, sol.X[pv])
				}
				for j, zv := range v.enc.SegBin {
					if sol.X[zv] > 0.5 {
						alloc.PriceUSDPerMWh = v.enc.SegRate[j]
						break
					}
				}
			}
			if in.DemandChargeUSDPerMW > 0 {
				alloc.DemandUSD = in.DemandChargeUSDPerMW * math.Max(0, alloc.GridMW-in.peak(i))
			}
			alloc.CostUSD = alloc.EnergyUSD + alloc.DemandUSD
		}
		d.Sites[i] = alloc
		d.EnergyCostUSD += alloc.EnergyUSD
		d.DemandChargeUSD += alloc.DemandUSD
		d.Served += lam
	}
	d.SettlementUSD = s.settlementUSD(in)
	d.PredictedCostUSD = d.EnergyCostUSD + d.DemandChargeUSD + d.SettlementUSD
	return d
}

// MinimizeCost solves step 1 (paper eq. 1–2) for the given workload: route
// lambda requests/hour at minimum predicted electricity cost subject to the
// SLA, per-site power caps and the optimizer's price model.
func (s *System) MinimizeCost(in HourInput, lambda float64, stats *SolverStats) (Decision, error) {
	return s.minimizeCost(in, lambda, stats, s.solveOptions(), kindMinCostTotal)
}

func (s *System) minimizeCost(in HourInput, lambda float64, stats *SolverStats, so milp.Options, kind solveKind) (Decision, error) {
	if err := s.ValidateInput(in); err != nil {
		return Decision{}, err
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return Decision{}, fmt.Errorf("%w: negative workload %v", ErrBadInput, lambda)
	}
	scale := lambdaScale(lambda)
	m, vars, err := s.buildMinCost(in, lambda, scale)
	if err != nil {
		return Decision{}, err
	}
	sol := m.SolveWithOptions(warmOptions(so, kind, in))
	if stats != nil {
		stats.add(sol)
	}
	switch sol.Status {
	case milp.Optimal:
	case milp.Cutoff:
		// The root bound proved the hour over budget (stepOneOptions).
		return Decision{Warm: carried(in, kind, sol)}, errOverBudget
	case milp.TimeLimit:
		if len(sol.X) == 0 {
			return Decision{}, fmt.Errorf("core: cost minimization timed out with no incumbent")
		}
	case milp.Infeasible:
		return Decision{}, fmt.Errorf("%w: %v req/h over %d sites", ErrInfeasible, lambda, len(vars))
	default:
		return Decision{}, fmt.Errorf("core: cost minimization ended %v", sol.Status)
	}
	d := s.decisionFrom(sol, vars, scale, in)
	d.Warm = carried(in, kind, sol)
	if sol.Status == milp.TimeLimit {
		d.Degraded = DegradeTimeLimit
	}
	if stats != nil {
		d.Solver = *stats
	}
	return d, nil
}

// WriteHourModel builds the hour's Step-1 cost-minimization MILP and writes
// it in the lp_solve-style text format, so an operator can inspect or
// re-solve any decision with cmd/milpsolve:
//
//	capperd says hour 412 looks odd → dump it → milpsolve hour412.lp
func (s *System) WriteHourModel(w io.Writer, in HourInput, lambda float64) error {
	if err := s.ValidateInput(in); err != nil {
		return err
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return fmt.Errorf("%w: negative workload %v", ErrBadInput, lambda)
	}
	m, _, err := s.buildMinCost(in, lambda, lambdaScale(lambda))
	if err != nil {
		return err
	}
	return lpparse.Write(w, m)
}

// buildMinCost builds step 1's model for lambda requests/hour: the shared
// model, the Σ x = λ row that serves every arrival, and the cost and
// battery-value objective. minimizeCost solves it and WriteHourModel dumps
// it, so the dump is by construction the model step 1 solves.
func (s *System) buildMinCost(in HourInput, lambda, scale float64) (*milp.Problem, []siteVars, error) {
	m, vars, err := s.buildBase(in, scale, lambda)
	if err != nil {
		return nil, nil, err
	}
	terms := make([]lp.Term, len(vars))
	for i, v := range vars {
		terms[i] = lp.Term{Var: v.x, Coef: 1}
	}
	m.AddConstraint(terms, lp.EQ, lambda/scale)
	for _, t := range s.costTerms(vars, in) {
		m.SetObjectiveCoef(t.Var, m.ObjectiveCoef(t.Var)+t.Coef)
	}
	for _, t := range batteryValueTerms(vars, in) {
		m.SetObjectiveCoef(t.Var, m.ObjectiveCoef(t.Var)+t.Coef)
	}
	return m, vars, nil
}

// MaximizeThroughput solves step 2 (paper eq. 8–9): admit as many requests
// as possible (up to the hour's arrivals) while keeping predicted cost within
// the budget. A cost penalty of ε per dollar against each scaled unit of
// load breaks ties toward cheaper allocations, and may give up to
// ε·scale req/h of throughput for each dollar it saves (see epsilon).
func (s *System) MaximizeThroughput(in HourInput, stats *SolverStats) (Decision, error) {
	return s.maximizeThroughput(in, stats, s.solveOptions(), kindMaxThroughput)
}

func (s *System) maximizeThroughput(in HourInput, stats *SolverStats, so milp.Options, kind solveKind) (Decision, error) {
	if err := s.ValidateInput(in); err != nil {
		return Decision{}, err
	}
	scale := lambdaScale(in.TotalLambda)
	m, vars, err := s.buildMaxThroughput(in, scale)
	if err != nil {
		return Decision{}, err
	}
	sol := m.SolveWithOptions(warmOptions(so, kind, in))
	if stats != nil {
		stats.add(sol)
	}
	switch {
	case sol.Status == milp.Optimal:
	case sol.Status == milp.TimeLimit && len(sol.X) > 0:
	default:
		// x = 0 with all sites off is always feasible, so anything but
		// optimal (or a timed-out incumbent) indicates a solver-level
		// failure worth surfacing.
		return Decision{}, fmt.Errorf("core: throughput maximization ended %v", sol.Status)
	}
	d := s.decisionFrom(sol, vars, scale, in)
	d.Warm = carried(in, kind, sol)
	if sol.Status == milp.TimeLimit {
		d.Degraded = DegradeTimeLimit
	}
	if stats != nil {
		d.Solver = *stats
	}
	return d, nil
}

// buildMaxThroughput builds step 2's model: the shared model, Σ x ≤ λ, the
// budget row (omitted when capping is off) and the objective
// max Σ x − ε·cost.
func (s *System) buildMaxThroughput(in HourInput, scale float64) (*milp.Problem, []siteVars, error) {
	m, vars, err := s.buildBase(in, scale, in.TotalLambda)
	if err != nil {
		return nil, nil, err
	}
	// Σ x ≤ λ: cannot serve more than arrives.
	terms := make([]lp.Term, len(vars))
	for i, v := range vars {
		terms[i] = lp.Term{Var: v.x, Coef: 1}
	}
	m.AddConstraint(terms, lp.LE, in.TotalLambda/scale)
	// The two-settlement position is a sunk constant, so the controllable
	// spend must fit what remains of the budget after it.
	if !math.IsInf(in.BudgetUSD, 1) {
		m.AddConstraint(s.costTerms(vars, in), lp.LE, s.dispatchBudgetUSD(in))
	}
	m.SetMaximize(true)
	for _, v := range vars {
		m.SetObjectiveCoef(v.x, 1)
	}
	for _, t := range s.costTerms(vars, in) {
		m.SetObjectiveCoef(t.Var, m.ObjectiveCoef(t.Var)-epsilon*t.Coef)
	}
	for _, t := range batteryValueTerms(vars, in) {
		m.SetObjectiveCoef(t.Var, m.ObjectiveCoef(t.Var)-epsilon*t.Coef)
	}
	return m, vars, nil
}
