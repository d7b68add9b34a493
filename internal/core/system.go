// Package core implements the paper's contribution: the two-step electricity
// bill capping algorithm for a network of cloud-scale, price-making data
// centers (paper §IV–§V).
//
// Step 1 (cost minimization) routes the hour's arrivals across sites to
// minimize Σᵢ Prᵢ·pᵢ where the price Prᵢ = Fᵢ(pᵢ + dᵢ) is a step function of
// the total regional load — a non-convex problem solved exactly as a MILP.
// Step 2 (throughput maximization within budget) engages when the minimized
// cost exceeds the hourly budget: it serves all premium traffic, admits as
// much ordinary traffic as the budget allows, and only violates the budget
// when premium traffic alone demands it.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"billcap/internal/dcmodel"
	"billcap/internal/milp"
	"billcap/internal/pricing"
)

// Site pairs one data center with the pricing policy of its power market.
type Site struct {
	DC     *dcmodel.Site
	Policy pricing.Policy
}

// PriceView selects how an optimizer models prices. The paper's contribution
// uses the true locational step policies; the Min-Only baselines and the A2
// ablation flatten them.
type PriceView int

// Price views.
const (
	// ViewLMP models the full locational step policy (price maker).
	ViewLMP PriceView = iota
	// ViewFlatAvg models a constant price at the mean of the steps
	// (Min-Only (Avg), paper §VII-A).
	ViewFlatAvg
	// ViewFlatLow models a constant price at the lowest step
	// (Min-Only (Low)).
	ViewFlatLow
)

// String names the view.
func (v PriceView) String() string {
	switch v {
	case ViewLMP:
		return "lmp"
	case ViewFlatAvg:
		return "flat-avg"
	case ViewFlatLow:
		return "flat-low"
	}
	return fmt.Sprintf("PriceView(%d)", int(v))
}

// Options configure an optimizer over a System.
type Options struct {
	// Scope selects the power components the optimizer models.
	Scope dcmodel.ModelScope
	// PriceView selects the optimizer's price model.
	PriceView PriceView
	// CapPenaltyUSDPerMWh is what the supplier charges for every MWh drawn
	// above the site's power cap Ps (paper §I: suppliers "penalize those
	// price makers heavily if this cap is exceeded"). 0 → 250 $/MWh, an
	// order of magnitude above the highest Policy 1 rate.
	CapPenaltyUSDPerMWh float64
	// SolveDeadline bounds the wall-clock time of each MILP solve inside a
	// decision; 0 → unlimited. When a solve expires, its best incumbent is
	// used and the decision is marked DegradeTimeLimit — a feasible but
	// possibly suboptimal answer instead of a hang (the real-time controller
	// must answer every invocation period).
	SolveDeadline time.Duration
	// Decompose enables the Lagrangian dual-decomposition solve path for
	// fleet-scale hour decisions: when the fleet exceeds DecomposeThreshold
	// sites, decideSteps routes each step's solve to internal/decomp —
	// per-site subproblems under dualized balance and budget rows, a
	// subgradient loop on the two multipliers, and a greedy-plus-LP primal
	// recovery — instead of the exact MILP. The decision then reports its
	// proven primal–dual gap in SolverStats{DecompIterations, DecompGap,
	// DecompDualBound}.
	Decompose bool
	// DecomposeThreshold is the fleet size above which Decompose routes away
	// from the exact MILP; 0 → 20. At or below the threshold the exact
	// branch-and-bound remains the oracle.
	DecomposeThreshold int
	// Deprecated: ignored. Each hour's root LP starts from the bases its
	// input carries (HourInput.Warm).
	SolverCache bool
}

// solveOptions derives the per-solve MILP options from the system options.
func (s *System) solveOptions() milp.Options {
	return milp.Options{Deadline: s.opts.SolveDeadline}
}

// epsilon is the cost weight in step 2's objective max Σx − ε·cost, x in
// scaled load units (lambdaScale). It breaks ties toward cheaper plans, and
// it also trades: of two plans within budget, step 2 may pick one that
// serves Δx scaled units (Δx·scale req/h) less when it costs more than Δx/ε
// dollars less. So a decision may serve up to ε·scale·Δcost req/h less
// than another plan the budget allows. Changing it moves bills.
const epsilon = 1e-4

func (o Options) capPenalty() float64 {
	if o.CapPenaltyUSDPerMWh == 0 {
		return 250
	}
	return o.CapPenaltyUSDPerMWh
}

// siteModel caches the per-site derived quantities the MILP builders need.
type siteModel struct {
	site Site
	// plans are the site's server classes in efficiency order, each with its
	// affine power model per the optimizer's scope; a one-class site has one.
	plans     []dcmodel.ClassPlan
	maxLambda float64 // the full-power cap walk (see NewSystem)
}

// multi reports whether the site has server classes, which the hour model
// gives their own load and activation variables.
func (sm siteModel) multi() bool { return len(sm.site.DC.Classes) > 0 }

// System is a network of data centers under one bill-capping controller.
//
// Concurrency: after NewSystem returns, every field the decision paths read
// (opts, models, Sites) is immutable, so DecideHour / DecideHourCtx /
// DecideBatch and the step solvers are safe for concurrent use from many
// goroutines — capperd serves all HTTP handlers from one System; a decision
// depends only on its input (HourInput.Warm included). The instrumentation
// pointer is the only mutable cell and is accessed atomically, so SetMetrics
// may race with in-flight decisions without corruption (decisions started
// before the swap report to the old bundle).
type System struct {
	Sites []Site

	opts    Options
	models  []siteModel
	metrics atomic.Pointer[Metrics] // optional instrumentation (see SetMetrics)
	// multiClass is set when any site has server classes.
	multiClass bool
}

// NewSystem validates and assembles a system with the given optimizer
// options.
func NewSystem(dcs []*dcmodel.Site, policies []pricing.Policy, opts Options) (*System, error) {
	if len(dcs) == 0 {
		return nil, fmt.Errorf("core: no data centers")
	}
	if len(dcs) != len(policies) {
		return nil, fmt.Errorf("core: %d data centers but %d policies", len(dcs), len(policies))
	}
	s := &System{opts: opts}
	for i, dc := range dcs {
		if err := dc.Validate(); err != nil {
			return nil, fmt.Errorf("core: site %d: %w", i, err)
		}
		site := Site{DC: dc, Policy: policies[i]}
		plans, err := dc.Plans(opts.Scope)
		if err != nil {
			return nil, fmt.Errorf("core: site %s: %w", dc.Name, err)
		}
		// Capacity limits always come from the full power model: every
		// operator enforces its supplier cap (the paper's §I — caps "must
		// first be enforced to avoid financial penalty"), even an optimizer
		// that prices only server power. The scope blinds the cost model,
		// not cap compliance.
		maxLam, err := dc.MaxLambda()
		if err != nil {
			return nil, fmt.Errorf("core: site %s: %w", dc.Name, err)
		}
		s.Sites = append(s.Sites, site)
		s.models = append(s.models, siteModel{site: site, plans: plans, maxLambda: maxLam})
		s.multiClass = s.multiClass || len(dc.Classes) > 0
	}
	return s, nil
}

// Options returns the optimizer options the system was built with.
func (s *System) Options() Options { return s.opts }

// NumSites returns the number of data centers.
func (s *System) NumSites() int { return len(s.Sites) }

// CapPenaltyUSDPerMWh returns the effective supplier penalty rate (the
// configured value or the package default), so harnesses billing metered
// grid draws outside Realize charge cap violations at the same rate.
func (s *System) CapPenaltyUSDPerMWh() float64 { return s.opts.capPenalty() }

// MaxThroughput returns the total arrival rate the system can accept under
// the optimizer's site models.
func (s *System) MaxThroughput() float64 {
	t := 0.0
	for _, m := range s.models {
		t += m.maxLambda
	}
	return t
}

// viewFn returns the price function of site i as the optimizer sees it.
func (s *System) viewFn(i int) pricing.Policy {
	p := s.Sites[i].Policy
	switch s.opts.PriceView {
	case ViewFlatAvg:
		return pricing.FlattenAvg(p)
	case ViewFlatLow:
		return pricing.FlattenLow(p)
	default:
		return p
	}
}

// HourInput is everything the capper needs for one invocation period.
type HourInput struct {
	// Hour is the absolute hour index since the scenario epoch (Monday
	// 00:00). The two-step capper itself is time-blind; time-of-use
	// baselines use Hour%24 to pick their tariff window.
	Hour int
	// TotalLambda is the hour's total arrivals in requests/hour.
	TotalLambda float64
	// PremiumLambda is the portion from paying customers, ≤ TotalLambda.
	PremiumLambda float64
	// DemandMW is the background regional demand d_i per site.
	DemandMW []float64
	// BudgetUSD is the hour's cost budget; +Inf disables capping.
	BudgetUSD float64
	// Down marks sites that are unavailable this hour (outage); nil means
	// every site is up. A down site is forced off in the MILP and receives
	// no load from the fallback dispatcher.
	Down []bool

	// The remaining fields extend the paper's energy-only bill to the tariff
	// engine (pricing.Tariff). All zero/nil values reproduce the original
	// model exactly.

	// DemandChargeUSDPerMW is the billing-period demand charge rate. When
	// positive, each site pays it for every MW its grid draw rises above
	// PeakMW[i] — the incremental form of peak-MW × $/MW-month billing that
	// keeps hours separable (the increments telescope to rate × final peak).
	DemandChargeUSDPerMW float64
	// PeakMW is the peak-so-far grid draw per site from the demand-charge
	// ledger (pricing.PeakLedger); nil means all zero.
	PeakMW []float64
	// RTPriceUSDPerMWh switches the hour to two-settlement: grid draw is
	// priced at this real-time rate per site instead of the step policy, and
	// the day-ahead position (DA − RT)·CommitMW is a decision-independent
	// constant folded into the predicted cost and the budget. nil = spot.
	RTPriceUSDPerMWh []float64
	// CommitMW is the day-ahead committed grid draw per site (two-settlement
	// only); nil means no commitments.
	CommitMW []float64
	// Batteries gives each site's storage for the hour; nil or a zero
	// CapacityMWh spec means no battery at that site. The MILP gains
	// charge/discharge variables bounded by the spec and by the current
	// state of charge.
	Batteries []BatterySpec

	// Warm is the root bases carried from an earlier hour (see RootBases);
	// the zero value solves cold. Never marshaled.
	Warm RootBases `json:"-"`
}

// BatterySpec is one site's storage as the hour MILP sees it: the physical
// bounds plus the planner's value of stored energy. It deliberately carries
// plain numbers rather than a *battery.Battery so decisions stay pure
// functions of their input.
type BatterySpec struct {
	// CapacityMWh, MaxChargeMW, MaxDischargeMW, Efficiency mirror
	// battery.Battery. CapacityMWh 0 = no battery.
	CapacityMWh    float64
	MaxChargeMW    float64
	MaxDischargeMW float64
	Efficiency     float64
	// SoCMWh is the state of charge entering the hour.
	SoCMWh float64
	// ValueUSDPerMWh prices stored energy in the objective (a Lagrangian
	// relaxation of the inter-hour SoC coupling): charging c MW banks
	// η·c MWh valued at ν each, discharging g MW spends ν·g. The hour then
	// charges exactly when the marginal energy price is below ν·η and
	// discharges when it is above ν. 0 makes the battery invisible to the
	// optimizer (it would discharge for free and never recharge), so
	// callers should set ν near the site's mid-band price.
	ValueUSDPerMWh float64
}

// Validate reports the first problem with the spec. A zero capacity means
// no battery, whatever the other fields hold; a battery needs finite,
// nonnegative rates, an efficiency in (0, 1], a state of charge within
// [0, capacity] and a finite, nonnegative energy value.
func (b BatterySpec) Validate() error {
	switch {
	case !finite(b.CapacityMWh) || b.CapacityMWh < 0:
		return fmt.Errorf("battery capacity %v MWh", b.CapacityMWh)
	case b.CapacityMWh == 0:
		return nil
	case !finite(b.MaxChargeMW) || b.MaxChargeMW < 0 || !finite(b.MaxDischargeMW) || b.MaxDischargeMW < 0:
		return fmt.Errorf("battery rates %v/%v MW", b.MaxChargeMW, b.MaxDischargeMW)
	case math.IsNaN(b.Efficiency) || b.Efficiency <= 0 || b.Efficiency > 1:
		return fmt.Errorf("battery efficiency %v", b.Efficiency)
	case math.IsNaN(b.SoCMWh) || b.SoCMWh < 0 || b.SoCMWh > b.CapacityMWh*(1+1e-9):
		return fmt.Errorf("battery state of charge %v MWh outside [0, %v]", b.SoCMWh, b.CapacityMWh)
	case !finite(b.ValueUSDPerMWh) || b.ValueUSDPerMWh < 0:
		return fmt.Errorf("battery energy value %v", b.ValueUSDPerMWh)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// active reports whether the spec describes a usable battery.
func (b BatterySpec) active() bool {
	return b.CapacityMWh > 0 && b.Efficiency > 0 && (b.MaxChargeMW > 0 || b.MaxDischargeMW > 0)
}

// SiteDown reports whether site i is marked unavailable.
func (in HourInput) SiteDown(i int) bool { return i < len(in.Down) && in.Down[i] }

// peak returns site i's peak-so-far grid draw.
func (in HourInput) peak(i int) float64 {
	if i < len(in.PeakMW) {
		return in.PeakMW[i]
	}
	return 0
}

// battery returns site i's battery spec (zero value = none).
func (in HourInput) battery(i int) BatterySpec {
	if i < len(in.Batteries) {
		return in.Batteries[i]
	}
	return BatterySpec{}
}

// twoSettlement reports whether the hour settles in the two-price market.
func (in HourInput) twoSettlement() bool { return len(in.RTPriceUSDPerMWh) > 0 }

// commit returns site i's day-ahead committed grid draw.
func (in HourInput) commit(i int) float64 {
	if i < len(in.CommitMW) {
		return in.CommitMW[i]
	}
	return 0
}

// hasBatteries reports whether any site has an active battery this hour.
func (in HourInput) hasBatteries() bool {
	for i := range in.Batteries {
		if in.battery(i).active() {
			return true
		}
	}
	return false
}

// hasTariffExtras reports whether the hour uses any tariff component beyond
// the energy-only model — the condition under which the hour's root LPs
// start cold and leave the carried bases as they got them (warmOptions).
func (in HourInput) hasTariffExtras() bool {
	return in.DemandChargeUSDPerMW > 0 || in.twoSettlement() || in.hasBatteries()
}

// settlementUSD is the hour's decision-independent two-settlement position
// Σᵢ (DAᵢ − RTᵢ)·Cᵢ, where DA is the optimizer's price view evaluated at the
// committed load. Zero under spot settlement.
func (s *System) settlementUSD(in HourInput) float64 {
	if !in.twoSettlement() {
		return 0
	}
	total := 0.0
	for i := range s.models {
		c := in.commit(i)
		if c <= 0 {
			continue
		}
		da := s.viewFn(i).Price(in.DemandMW[i] + c)
		total += (da - in.RTPriceUSDPerMWh[i]) * c
	}
	return total
}

// dispatchBudgetUSD is what the hour's budget leaves for the controllable
// spend once the sunk two-settlement position is paid; an uncapped (+Inf)
// budget stays uncapped. Segment and MILP costs already include the
// demand-charge increments, so this is the whole limit on them.
func (s *System) dispatchBudgetUSD(in HourInput) float64 {
	if math.IsInf(in.BudgetUSD, 1) {
		return in.BudgetUSD
	}
	return math.Max(0, in.BudgetUSD-s.settlementUSD(in))
}

// ScaleLoad returns a copy of the input with TotalLambda and PremiumLambda
// multiplied by f, preserving the premium fraction — the drift re-solve's
// way of re-posing the hour at the observed arrival rate. A non-finite or
// non-positive factor returns the input unchanged (scaling to nothing or to
// infinity is never a useful re-solve).
func (in HourInput) ScaleLoad(f float64) HourInput {
	if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
		return in
	}
	in.TotalLambda *= f
	in.PremiumLambda *= f
	return in
}

// ErrBadInput marks validation failures: the request itself is malformed
// (negative loads, NaN demand, wrong arity), as opposed to solver or model
// failures. API layers map it to HTTP 400.
var ErrBadInput = errors.New("core: bad input")

// Validate reports the first problem with the input against the system.
func (s *System) ValidateInput(in HourInput) error {
	switch {
	case math.IsNaN(in.TotalLambda) || in.TotalLambda < 0:
		return fmt.Errorf("%w: negative total load %v", ErrBadInput, in.TotalLambda)
	case math.IsNaN(in.PremiumLambda) || in.PremiumLambda < 0 || in.PremiumLambda > in.TotalLambda+1e-9:
		return fmt.Errorf("%w: premium load %v outside [0, %v]", ErrBadInput, in.PremiumLambda, in.TotalLambda)
	case len(in.DemandMW) != len(s.Sites):
		return fmt.Errorf("%w: %d demand entries for %d sites", ErrBadInput, len(in.DemandMW), len(s.Sites))
	case math.IsNaN(in.BudgetUSD) || in.BudgetUSD < 0:
		return fmt.Errorf("%w: bad budget %v", ErrBadInput, in.BudgetUSD)
	case len(in.Down) != 0 && len(in.Down) != len(s.Sites):
		return fmt.Errorf("%w: %d availability entries for %d sites", ErrBadInput, len(in.Down), len(s.Sites))
	}
	for i, d := range in.DemandMW {
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: bad demand %v at site %d", ErrBadInput, d, i)
		}
	}
	return s.validateTariffInput(in)
}

// validateTariffInput checks the tariff-engine extensions of HourInput.
func (s *System) validateTariffInput(in HourInput) error {
	n := len(s.Sites)
	if r := in.DemandChargeUSDPerMW; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return fmt.Errorf("%w: demand charge rate %v", ErrBadInput, r)
	}
	if len(in.PeakMW) != 0 && len(in.PeakMW) != n {
		return fmt.Errorf("%w: %d peak entries for %d sites", ErrBadInput, len(in.PeakMW), n)
	}
	for i, p := range in.PeakMW {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("%w: bad peak %v MW at site %d", ErrBadInput, p, i)
		}
	}
	if len(in.RTPriceUSDPerMWh) != 0 && len(in.RTPriceUSDPerMWh) != n {
		return fmt.Errorf("%w: %d RT prices for %d sites", ErrBadInput, len(in.RTPriceUSDPerMWh), n)
	}
	for i, r := range in.RTPriceUSDPerMWh {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("%w: bad RT price %v at site %d", ErrBadInput, r, i)
		}
	}
	if len(in.CommitMW) != 0 && len(in.CommitMW) != n {
		return fmt.Errorf("%w: %d commitments for %d sites", ErrBadInput, len(in.CommitMW), n)
	}
	if len(in.CommitMW) != 0 && !in.twoSettlement() {
		return fmt.Errorf("%w: day-ahead commitments without a real-time price series", ErrBadInput)
	}
	for i, c := range in.CommitMW {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
			return fmt.Errorf("%w: bad commitment %v MW at site %d", ErrBadInput, c, i)
		}
	}
	if len(in.Batteries) != 0 && len(in.Batteries) != n {
		return fmt.Errorf("%w: %d battery specs for %d sites", ErrBadInput, len(in.Batteries), n)
	}
	for i, b := range in.Batteries {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("%w: %v at site %d", ErrBadInput, err, i)
		}
	}
	return nil
}
