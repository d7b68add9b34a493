package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"billcap/internal/dcmodel"
	"billcap/internal/decomp"
)

// ResilientOptions tune the degradation ladder.
type ResilientOptions struct {
	// MaxStaleHours bounds how old a last-known-good decision may be before
	// the stale rung refuses to reuse it; 0 → 3 hours. Beyond that the
	// workload and prices have drifted too far for yesterday's plan to be a
	// defensible answer, and shedding is honest.
	MaxStaleHours int
}

func (o ResilientOptions) maxStale() int {
	if o.MaxStaleHours == 0 {
		return 3
	}
	return o.MaxStaleHours
}

// Resilient wraps a System in the graceful-degradation ladder: the real-time
// controller must produce an allocation every invocation period, so instead
// of propagating solver failures it steps down through progressively cruder
// but safer answers:
//
//	optimal MILP → deadline-limited incumbent → greedy dispatch →
//	last-known-good reuse → shed
//
// Every rung respects power caps and the SLA admission limit; what degrades
// is cost optimality and, at the bottom, served throughput — never safety.
// The rung taken is recorded in Decision.Degraded and, when the wrapped
// system carries metrics, in the billcap_fallback_used_total /
// billcap_stale_decisions_total / billcap_decide_degraded_total counters.
//
// Corrupt inputs (NaN demand, negative budgets, wrong-arity feeds) are
// patched with the last pristine values seen before deciding, so a price- or
// demand-feed dropout degrades the answer instead of killing the hour.
//
// Each hour starts from the root bases (RootBases) the last accepted MILP
// answer handed on, whatever the input carried; a lower rung leaves them as
// they were. They are not durable, so the first hour after a restart starts
// cold.
//
// Decide is safe for concurrent use.
type Resilient struct {
	sys  *System
	opts ResilientOptions

	mu           sync.Mutex
	lastGood     *Decision
	lastGoodHour int
	lastDemand   []float64
	lastBudget   float64
	haveBudget   bool
	warm         RootBases
	failSolver   map[int]bool
	failFallback map[int]bool
	failAudit    map[int]bool
}

// NewResilient wraps sys in the ladder.
func NewResilient(sys *System, opts ResilientOptions) *Resilient {
	return &Resilient{
		sys:          sys,
		opts:         opts,
		lastGoodHour: math.MinInt32,
		failSolver:   map[int]bool{},
		failFallback: map[int]bool{},
		failAudit:    map[int]bool{},
	}
}

// System exposes the wrapped optimizer system.
func (r *Resilient) System() *System { return r.sys }

// InjectSolverFailure forces the MILP rung to fail at the given hour — the
// fault-injection hook the chaos harness uses to exercise the ladder.
func (r *Resilient) InjectSolverFailure(hour int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failSolver[hour] = true
}

// InjectFallbackFailure forces the greedy rung to fail at the given hour.
func (r *Resilient) InjectFallbackFailure(hour int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failFallback[hour] = true
}

// InjectAuditFailure forces the feasibility audit to reject the MILP rung's
// answer at the given hour, exercising the audit-demotion path without
// needing a solver that actually answers wrong.
func (r *Resilient) InjectAuditFailure(hour int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failAudit[hour] = true
}

// Decide runs the ladder for one hour. It is total: it always returns a
// decision (possibly the zero "shed" decision) and never panics.
func (r *Resilient) Decide(in HourInput) Decision {
	return r.DecideCtx(context.Background(), in)
}

// DecideCtx is Decide with the context's deadline and cancellation bounding
// the MILP rung (see System.DecideHourCtx). The greedy and stale rungs need
// no solver, so even an already-expired context still yields an allocation.
func (r *Resilient) DecideCtx(ctx context.Context, in HourInput) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()

	in = r.sanitize(in)
	in.Warm = r.warm

	audited := false
	if !r.failSolver[in.Hour] {
		dec, err := r.solveSupervised(ctx, in)
		if err == nil {
			r.warm = dec.Warm
			r.remember(in.Hour, dec)
			return dec
		}
		if errors.Is(err, errAuditRejected) {
			audited = true
			r.sys.Metrics().RecordAuditRejection()
		}
	}

	if !r.failFallback[in.Hour] {
		if dec, ok := r.tryGreedy(in); ok {
			rung := DegradeFallback
			if audited {
				rung = DegradeAudit
			}
			dec.Degraded = rung
			r.sys.Metrics().RecordDegraded(rung)
			r.remember(in.Hour, dec)
			return dec
		}
	}

	if dec, ok := r.staleReuse(in); ok {
		dec.Degraded = DegradeStale
		r.sys.Metrics().RecordDegraded(DegradeStale)
		return dec
	}

	// Shed: everything failed with nothing recent to reuse. All sites off is
	// always safe (caps trivially hold); the hour's load is dropped.
	r.sys.Metrics().RecordDegraded(DegradeShed)
	return Decision{
		Sites:    make([]SiteAlloc, len(r.sys.Sites)),
		Step:     StepOverCapacity,
		Degraded: DegradeShed,
	}
}

// sanitize patches corrupt fields with the last pristine values seen, and
// remembers this hour's pristine fields for the next dropout. It never
// rejects: a feed outage must degrade the answer, not abort the hour.
func (r *Resilient) sanitize(in HourInput) HourInput {
	n := len(r.sys.Sites)
	if r.lastDemand == nil {
		r.lastDemand = make([]float64, n)
	}

	demand := make([]float64, n)
	for i := range demand {
		var d float64
		if i < len(in.DemandMW) {
			d = in.DemandMW[i]
		} else {
			d = math.NaN() // missing entry: treat as corrupt
		}
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			demand[i] = r.lastDemand[i]
		} else {
			demand[i] = d
			r.lastDemand[i] = d
		}
	}
	in.DemandMW = demand

	if math.IsNaN(in.TotalLambda) || in.TotalLambda < 0 {
		in.TotalLambda = 0
	}
	if math.IsInf(in.TotalLambda, 1) {
		in.TotalLambda = r.sys.MaxThroughput()
	}
	if math.IsNaN(in.PremiumLambda) || in.PremiumLambda < 0 {
		in.PremiumLambda = 0
	}
	if in.PremiumLambda > in.TotalLambda {
		in.PremiumLambda = in.TotalLambda
	}

	if math.IsNaN(in.BudgetUSD) || in.BudgetUSD < 0 {
		if r.haveBudget {
			in.BudgetUSD = r.lastBudget
		} else {
			in.BudgetUSD = 0 // no history: serve premium only, the safe read
		}
	} else {
		r.lastBudget = in.BudgetUSD
		r.haveBudget = true
	}

	if len(in.Down) != 0 && len(in.Down) != n {
		in.Down = nil // unusable availability feed: assume every site up
	}

	// Tariff extras: a corrupt component is dropped for the hour (the bill
	// model degrades to energy-only) rather than aborting — same philosophy
	// as the feeds above. Every rung below indexes these slices, so arity
	// must be right or nil.
	if r := in.DemandChargeUSDPerMW; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		in.DemandChargeUSDPerMW = 0
	}
	if len(in.PeakMW) != 0 && len(in.PeakMW) != n {
		in.PeakMW = nil
	}
	for i, p := range in.PeakMW {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			peaks := append([]float64(nil), in.PeakMW...)
			peaks[i] = 0
			in.PeakMW = peaks
		}
	}
	dropTS := len(in.RTPriceUSDPerMWh) != 0 && len(in.RTPriceUSDPerMWh) != n
	for _, p := range in.RTPriceUSDPerMWh {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			dropTS = true
		}
	}
	if dropTS {
		in.RTPriceUSDPerMWh, in.CommitMW = nil, nil
	}
	if len(in.CommitMW) != 0 && (len(in.CommitMW) != n || !in.twoSettlement()) {
		in.CommitMW = nil
	}
	for i, c := range in.CommitMW {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			commits := append([]float64(nil), in.CommitMW...)
			commits[i] = 0
			in.CommitMW = commits
		}
	}
	if len(in.Batteries) != 0 && len(in.Batteries) != n {
		in.Batteries = nil
	}
	for i, b := range in.Batteries {
		// A spec validation would reject means no battery there this hour.
		if b.Validate() != nil {
			bats := append([]BatterySpec(nil), in.Batteries...)
			bats[i] = BatterySpec{}
			in.Batteries = bats
		}
	}
	return in
}

// tryMILP runs the two-step algorithm with panic recovery: a solver bug
// becomes a ladder step instead of a crashed controller.
func (r *Resilient) tryMILP(ctx context.Context, in HourInput) (dec Decision, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: solver panic: %v", p)
		}
	}()
	return r.sys.DecideHourCtx(ctx, in)
}

// tryGreedy runs the solver-free greedy rung, also panic-recovered: decomp's
// restoration fill over the hour's tariff-aware segments (demand-charge
// splits, real-time rates), serving premium first and then ordinary load
// within the budget left after the sunk settlement. Batteries stay idle.
func (r *Resilient) tryGreedy(in HourInput) (dec Decision, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	sites, err := r.sys.decompSites(in)
	if err != nil {
		return Decision{}, false
	}
	lambdas := decomp.Greedy(sites, in.PremiumLambda, in.TotalLambda, r.sys.dispatchBudgetUSD(in))
	return r.planFrom(in, lambdas), true
}

// staleReuse replays the last-known-good allocation if it is recent enough,
// with this hour's outages unloaded and the total scaled down to this hour's
// arrivals. Power caps and SLA limits are per-site properties of the lambdas
// themselves, so a cap-safe plan stays cap-safe under reuse.
func (r *Resilient) staleReuse(in HourInput) (Decision, bool) {
	if r.lastGood == nil {
		return Decision{}, false
	}
	age := in.Hour - r.lastGoodHour
	if age < 0 || age > r.opts.maxStale() {
		return Decision{}, false
	}
	lambdas := make([]float64, len(r.lastGood.Sites))
	total := 0.0
	for i, a := range r.lastGood.Sites {
		if in.SiteDown(i) {
			continue
		}
		lambdas[i] = a.Lambda
		total += a.Lambda
	}
	if total > in.TotalLambda && total > 0 {
		f := in.TotalLambda / total
		for i := range lambdas {
			lambdas[i] *= f
		}
	}
	return r.planFrom(in, lambdas), true
}

// planFrom prices a per-site allocation under the optimizer's models and
// assembles a Decision, clamping each site to its SLA/cap limit. A
// multi-class site splits its load by the efficiency-order fill, as the
// greedy's segments price it. The degraded rungs never operate batteries
// (safety: the crude plan should not touch stored energy), but
// demand-charge increments and the two-settlement position are still
// accounted so budget arithmetic stays truthful.
func (r *Resilient) planFrom(in HourInput, lambdas []float64) Decision {
	d := Decision{Sites: make([]SiteAlloc, len(r.sys.models))}
	for i, sm := range r.sys.models {
		lam := lambdas[i]
		if lam <= 0 || in.SiteDown(i) {
			continue
		}
		if lam > sm.maxLambda {
			lam = sm.maxLambda
		}
		split := dcmodel.Fill(sm.plans, lam)
		p := 0.0
		for c, pl := range sm.plans {
			if split[c] > 0 {
				p += pl.PowerMW(split[c])
			}
		}
		rate := r.sys.viewFn(i).Fn.Eval(in.DemandMW[i] + p)
		if in.twoSettlement() {
			rate = in.RTPriceUSDPerMWh[i]
		}
		alloc := SiteAlloc{
			Lambda:         lam,
			PowerMW:        p,
			GridMW:         p,
			PriceUSDPerMWh: rate,
			EnergyUSD:      rate * p,
			On:             true,
		}
		if sm.multi() {
			alloc.ClassLambda = split
		}
		if in.DemandChargeUSDPerMW > 0 {
			alloc.DemandUSD = in.DemandChargeUSDPerMW * math.Max(0, p-in.peak(i))
		}
		alloc.CostUSD = alloc.EnergyUSD + alloc.DemandUSD
		d.Sites[i] = alloc
		d.Served += lam
		d.EnergyCostUSD += alloc.EnergyUSD
		d.DemandChargeUSD += alloc.DemandUSD
	}
	d.SettlementUSD = r.sys.settlementUSD(in)
	d.PredictedCostUSD = d.EnergyCostUSD + d.DemandChargeUSD + d.SettlementUSD
	d.ServedPremium = math.Min(in.PremiumLambda, d.Served)
	d.ServedOrdinary = d.Served - d.ServedPremium
	d.Step = stepFor(in, d)
	return d
}

// stepFor maps a degraded plan onto the closest two-step branch, so step
// accounting stays meaningful across rungs.
func stepFor(in HourInput, d Decision) Step {
	slack := 1e-9 * (1 + in.TotalLambda)
	switch {
	case d.Served >= in.TotalLambda-slack:
		return StepCostMin
	case d.ServedPremium >= in.PremiumLambda-slack:
		return StepBudgetCapped
	default:
		return StepOverCapacity
	}
}

// ResilientState is the ladder's durable state: the last-known-good decision
// the stale rung replays after a restart, plus the sanitizer's last pristine
// feed values. It round-trips through JSON for the crash-safe checkpoint
// layer (internal/state). Fault-injection maps are deliberately excluded —
// injected faults are a property of a test run, not of the controller.
type ResilientState struct {
	LastGood     *Decision `json:"lastGood,omitempty"`
	LastGoodHour int       `json:"lastGoodHour"`
	LastDemand   []float64 `json:"lastDemand,omitempty"`
	LastBudget   float64   `json:"lastBudget"`
	HaveBudget   bool      `json:"haveBudget"`
}

// resilientStateJSON is the wire form: JSON has no +Inf, so the sanitizer's
// uncapped-budget sentinel travels as a flag instead of killing the marshal.
type resilientStateJSON struct {
	LastGood       *Decision `json:"lastGood,omitempty"`
	LastGoodHour   int       `json:"lastGoodHour"`
	LastDemand     []float64 `json:"lastDemand,omitempty"`
	LastBudget     float64   `json:"lastBudget"`
	BudgetUncapped bool      `json:"budgetUncapped,omitempty"`
	HaveBudget     bool      `json:"haveBudget"`
}

// MarshalJSON encodes the state, folding a +Inf last budget into the
// budgetUncapped flag.
func (st ResilientState) MarshalJSON() ([]byte, error) {
	w := resilientStateJSON{
		LastGood:     st.LastGood,
		LastGoodHour: st.LastGoodHour,
		LastDemand:   st.LastDemand,
		LastBudget:   st.LastBudget,
		HaveBudget:   st.HaveBudget,
	}
	if math.IsInf(st.LastBudget, 1) {
		w.LastBudget = 0
		w.BudgetUncapped = true
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form, restoring the +Inf sentinel.
func (st *ResilientState) UnmarshalJSON(b []byte) error {
	var w resilientStateJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*st = ResilientState{
		LastGood:     w.LastGood,
		LastGoodHour: w.LastGoodHour,
		LastDemand:   w.LastDemand,
		LastBudget:   w.LastBudget,
		HaveBudget:   w.HaveBudget,
	}
	if w.BudgetUncapped {
		st.LastBudget = math.Inf(1)
	}
	return nil
}

// Snapshot captures the ladder state. Slices are deep-copied so the snapshot
// stays valid while the ladder keeps deciding.
func (r *Resilient) Snapshot() ResilientState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ResilientState{
		LastGoodHour: r.lastGoodHour,
		LastBudget:   r.lastBudget,
		HaveBudget:   r.haveBudget,
	}
	if r.lastGood != nil {
		cp := *r.lastGood
		cp.Sites = append([]SiteAlloc(nil), r.lastGood.Sites...)
		st.LastGood = &cp
	}
	if r.lastDemand != nil {
		st.LastDemand = append([]float64(nil), r.lastDemand...)
	}
	return st
}

// Restore replaces the ladder state with a snapshot, validating arity and
// finiteness against the wrapped system — a checkpoint from a different fleet
// must fail loudly, not feed the stale rung a wrong-shaped plan.
func (r *Resilient) Restore(st ResilientState) error {
	n := len(r.sys.Sites)
	if st.LastGood != nil && len(st.LastGood.Sites) != n {
		return fmt.Errorf("core: restore: last-good decision has %d sites, system has %d", len(st.LastGood.Sites), n)
	}
	if st.LastDemand != nil && len(st.LastDemand) != n {
		return fmt.Errorf("core: restore: last demand has %d sites, system has %d", len(st.LastDemand), n)
	}
	for i, v := range st.LastDemand {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("core: restore: bad demand %v at site %d", v, i)
		}
	}
	// +Inf is the legitimate "uncapped" sentinel the sanitizer may have seen.
	if math.IsNaN(st.LastBudget) || math.IsInf(st.LastBudget, -1) || st.LastBudget < 0 {
		return fmt.Errorf("core: restore: bad budget %v", st.LastBudget)
	}
	if st.LastGood != nil {
		for i, a := range st.LastGood.Sites {
			if math.IsNaN(a.Lambda) || math.IsInf(a.Lambda, 0) || a.Lambda < 0 ||
				math.IsNaN(a.PowerMW) || math.IsInf(a.PowerMW, 0) || a.PowerMW < 0 {
				return fmt.Errorf("core: restore: bad allocation at site %d", i)
			}
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if st.LastGood != nil {
		cp := *st.LastGood
		cp.Sites = append([]SiteAlloc(nil), st.LastGood.Sites...)
		r.lastGood = &cp
		r.lastGoodHour = st.LastGoodHour
	} else {
		r.lastGood = nil
		r.lastGoodHour = math.MinInt32
	}
	if st.LastDemand != nil {
		r.lastDemand = append([]float64(nil), st.LastDemand...)
	} else {
		r.lastDemand = nil
	}
	r.lastBudget = st.LastBudget
	r.haveBudget = st.HaveBudget
	return nil
}

// remember stores a successful decision as the stale rung's reserve.
func (r *Resilient) remember(hour int, dec Decision) {
	cp := dec
	cp.Sites = append([]SiteAlloc(nil), dec.Sites...)
	r.lastGood = &cp
	r.lastGoodHour = hour
}
