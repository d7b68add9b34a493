package core

import (
	"fmt"
	"math"

	"billcap/internal/decomp"
	"billcap/internal/milp"
	"billcap/internal/piecewise"
)

// routeDecomp reports whether decideSteps should take the dual-decomposition
// path instead of the exact MILP: opted in and above the fleet-size
// threshold. Below it the exact solver stays the oracle. Battery hours also
// fall back to the exact MILP: the storage variables couple charge and
// discharge to the load inside each site in a way the closed-form segment
// subproblem does not model (demand charges and two-settlement, by contrast,
// stay separable and are absorbed into the segment costs below). So do
// fleets with multi-class sites, whose class split the segments price only
// as the efficiency-order fill, not as the MILP's free choice.
func (s *System) routeDecomp(in HourInput) bool {
	return s.opts.Decompose && len(s.models) > s.opts.decomposeThreshold() && !in.hasBatteries() && !s.multiClass
}

func (o Options) decomposeThreshold() int {
	if o.DecomposeThreshold <= 0 {
		return 20
	}
	return o.DecomposeThreshold
}

// decompOptions maps the per-solve MILP options onto the decomposition
// loop: deadline and cancellation carry over. A cutoff travels in the
// instance instead (decompMinCost).
func (s *System) decompOptions(so milp.Options) decomp.Options {
	return decomp.Options{
		Deadline: so.Deadline,
		Cancel:   so.Cancel,
	}
}

// fillPiece is one affine stretch of a site's power under the efficiency-
// order fill: on [lo, hi] the classes before the piece's own are full and
// p = a·λ + b.
type fillPiece struct{ lo, hi, a, b float64 }

// decompSites converts the hour into decomposition form, one site at a time:
// each reachable power segment from the piecewise plan becomes a load
// interval (power p = a·λ + b inverts to λ = (p − b)/a), with cost and power
// affine in the load. A multi-class site crosses the segments with its fill
// pieces. Down sites keep only their off state.
//
// The tariff engine's separable components are absorbed exactly rather than
// dualized: under two-settlement the energy rate is the flat RT price, and a
// demand charge splits each segment at the load where the grid draw crosses
// the ledger's peak-so-far — the above-peak part carries the extra
// dc·(p − peak) in its affine cost. No new coupling rows are needed, so the
// decomposition's gap guarantees carry over unchanged. (Batteries are the
// one non-separable extension; routeDecomp falls back to the exact MILP for
// them.)
func (s *System) decompSites(in HourInput) ([]decomp.Site, error) {
	sites := make([]decomp.Site, len(s.models))
	for i, sm := range s.models {
		name := sm.site.DC.Name
		site := decomp.Site{Name: name, CanOff: true}
		if in.SiteDown(i) {
			sites[i] = site
			continue
		}
		plan, err := piecewise.PlanSegments(s.viewFn(i).Fn, in.DemandMW[i],
			sm.site.DC.PowerCapMW, sm.site.DC.RoundingSlackMW())
		if err != nil {
			return nil, fmt.Errorf("core: site %s: %w", name, err)
		}
		// One piece per class prefix, up to the site's load limit: a
		// one-class site has the single piece [0, maxLambda].
		lo, full := 0.0, 0.0 // load and power of the full classes before the piece
		for k, pl := range sm.plans {
			hi := sm.maxLambda
			if k < len(sm.plans)-1 {
				hi = math.Min(hi, lo+pl.MaxLambda)
			}
			pc := fillPiece{lo: lo, hi: hi, a: pl.A, b: full + pl.B - pl.A*lo}
			for _, sp := range plan {
				rate := sp.Rate
				if in.twoSettlement() {
					rate = in.RTPriceUSDPerMWh[i]
				}
				site.Segments = appendSegments(site.Segments, pc, sp, rate, in.DemandChargeUSDPerMW, in.peak(i))
			}
			if hi >= sm.maxLambda {
				break
			}
			lo, full = hi, full+pl.PowerMW(pl.MaxLambda)
		}
		sites[i] = site
	}
	return sites, nil
}

// appendSegments appends the load intervals on which fill piece pc draws
// power inside price segment sp, priced at rate plus the demand charge dc
// above the peak-so-far.
func appendSegments(segs []decomp.Segment, pc fillPiece, sp piecewise.SegPlan, rate, dc, peak float64) []decomp.Segment {
	a, b := pc.a, pc.b
	if a <= 0 {
		// Constant draw b: only the segment containing it is live, and the
		// load is bounded by capacity alone.
		if b < sp.Lo || b > sp.Hi {
			return segs
		}
		seg := decomp.Segment{
			Seg: sp.Seg, LoadLo: pc.lo, LoadHi: pc.hi,
			Cost0: rate * b, Power0: b, Rate: rate,
		}
		if dc > 0 && b > peak {
			seg.Cost0 += dc * (b - peak)
		}
		return append(segs, seg)
	}
	lo := math.Max(pc.lo, (sp.Lo-b)/a)
	hi := math.Min(pc.hi, (sp.Hi-b)/a)
	add := func(l0, l1 float64, abovePeak bool) {
		if l1 < l0 {
			return
		}
		seg := decomp.Segment{
			Seg:    sp.Seg,
			LoadLo: l0,
			LoadHi: l1,
			Cost0:  rate * b,
			Cost1:  rate * a,
			Power0: b,
			Power1: a,
			Rate:   rate,
		}
		if abovePeak {
			// rate·p + dc·(p − peak) with p = a·λ + b.
			seg.Cost0 += dc * (b - peak)
			seg.Cost1 += dc * a
		}
		segs = append(segs, seg)
	}
	switch loadAtPeak := (peak - b) / a; {
	case hi < lo:
		// The power segment sits outside the piece's λ range.
	case dc <= 0:
		add(lo, hi, false)
	case loadAtPeak <= lo:
		add(lo, hi, true)
	case loadAtPeak >= hi:
		add(lo, hi, false)
	default:
		// Split at the load where the grid draw crosses the peak ledger.
		add(lo, loadAtPeak, false)
		add(loadAtPeak, hi, true)
	}
	return segs
}

// decompMinCost is the decomposition drop-in for minimizeCost: serve exactly
// lambda at minimum predicted cost. Signature-compatible with minimizeCost
// so decideSteps can swap solvers per call site.
func (s *System) decompMinCost(in HourInput, lambda float64, stats *SolverStats, so milp.Options, kind solveKind) (Decision, error) {
	if err := s.ValidateInput(in); err != nil {
		return Decision{}, err
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return Decision{}, fmt.Errorf("%w: negative workload %v", ErrBadInput, lambda)
	}
	sites, err := s.decompSites(in)
	if err != nil {
		return Decision{}, err
	}
	inst := decomp.Instance{
		Sites:      sites,
		Sense:      decomp.MinCostServeAll,
		TargetLoad: lambda,
		BudgetUSD:  math.Inf(1),
	}
	if so.Cutoff != 0 {
		inst.BudgetUSD = so.Cutoff
	}
	res, err := decomp.Solve(inst, s.decompOptions(so))
	if err != nil {
		return Decision{}, err
	}
	if stats != nil {
		stats.addDecomp(res)
	}
	switch res.Status {
	case decomp.Infeasible:
		return Decision{}, fmt.Errorf("%w: %v req/h over %d sites", ErrInfeasible, lambda, len(sites))
	case decomp.OverBudget:
		return Decision{Warm: in.Warm}, errOverBudget
	}
	d := s.decisionFromDecomp(res, in)
	if stats != nil {
		d.Solver = *stats
	}
	return d, nil
}

// decompMaxThroughput is the decomposition drop-in for maximizeThroughput:
// admit as much load as possible within the budget.
func (s *System) decompMaxThroughput(in HourInput, stats *SolverStats, so milp.Options, kind solveKind) (Decision, error) {
	if err := s.ValidateInput(in); err != nil {
		return Decision{}, err
	}
	sites, err := s.decompSites(in)
	if err != nil {
		return Decision{}, err
	}
	inst := decomp.Instance{
		Sites:      sites,
		Sense:      decomp.MaxLoadWithinBudget,
		TargetLoad: in.TotalLambda,
		BudgetUSD:  s.dispatchBudgetUSD(in),
		Epsilon:    epsilon,
	}
	res, err := decomp.Solve(inst, s.decompOptions(so))
	if err != nil {
		return Decision{}, err
	}
	if stats != nil {
		stats.addDecomp(res)
	}
	if res.Status == decomp.Infeasible {
		// All sites can switch off, so an empty plan is always feasible;
		// this is a solver-level failure worth surfacing.
		return Decision{}, fmt.Errorf("core: decomposed throughput maximization found no feasible plan")
	}
	d := s.decisionFromDecomp(res, in)
	if stats != nil {
		d.Solver = *stats
	}
	return d, nil
}

// decisionFromDecomp maps a recovered primal onto the capper's decision
// shape, re-deriving the tariff components from the allocation values (the
// same exactness discipline as decisionFrom: the audit re-checks claims, so
// they must be rate×power arithmetic, not objective readbacks). The carried
// bases pass through.
func (s *System) decisionFromDecomp(res decomp.Result, in HourInput) Decision {
	d := Decision{Sites: make([]SiteAlloc, len(res.Sites)), Warm: in.Warm}
	for i, a := range res.Sites {
		alloc := SiteAlloc{
			Lambda:         a.Load,
			PowerMW:        a.PowerMW,
			GridMW:         a.PowerMW, // no batteries on the decomp path
			PriceUSDPerMWh: a.Rate,
			On:             a.On,
		}
		if a.On {
			alloc.EnergyUSD = a.Rate * a.PowerMW
			if in.DemandChargeUSDPerMW > 0 {
				alloc.DemandUSD = in.DemandChargeUSDPerMW * math.Max(0, a.PowerMW-in.peak(i))
			}
			alloc.CostUSD = alloc.EnergyUSD + alloc.DemandUSD
		}
		d.Sites[i] = alloc
		d.EnergyCostUSD += alloc.EnergyUSD
		d.DemandChargeUSD += alloc.DemandUSD
	}
	d.SettlementUSD = s.settlementUSD(in)
	d.PredictedCostUSD = d.EnergyCostUSD + d.DemandChargeUSD + d.SettlementUSD
	d.Served = res.Load
	return d
}
