// Package audit is an independent feasibility check for capping decisions.
// The optimizer's answer is "feasible within gap" by its own arithmetic; a
// wrong-but-plausible allocation — over a supplier power cap, priced off the
// wrong tariff band, or quietly over budget — is worse than a declared
// failure, because it violates the contract the whole system exists to keep.
// This package therefore re-derives every claim from first principles with no
// solver code shared: plain float arithmetic over the site models and a
// pricing closure, nothing imported from the MILP, LP or decomposition
// packages. A rejection is a reason to demote down the degradation ladder,
// never a reason to crash the hour.
package audit

import (
	"fmt"
	"math"
)

// relTol is the relative slack granted to every numeric comparison: the
// solver works in floating point and its answers are honest to ~1e-9; an
// audit stricter than the arithmetic would reject correct plans.
const relTol = 1e-6

// priceGrace is how far below the claimed operating point the auditor will
// re-evaluate the tariff when the claimed rate disagrees: the planner
// deliberately prices loads an epsilon inside their half-open price band, so
// a load sitting exactly on a band boundary may legitimately carry the rate
// of the band just below.
const priceGrace = 2e-6

// Site is the auditor's independent copy of one data center's physics: the
// affine power model, the SLA throughput limit, the supplier cap, and the
// tariff as an opaque closure (total draw in MW → $/MWh). The tariff-engine
// fields extend the check to demand charges, two-settlement and batteries;
// their zero values audit the original energy-only model.
type Site struct {
	MaxLambda   float64 // SLA admission limit, requests/hour
	MWPerLambda float64 // affine power model slope (A)
	IdleMW      float64 // affine power model intercept (B)
	PowerCapMW  float64 // supplier contract cap
	SlackMW     float64 // rounding slack the planner may use above the cap
	DemandMW    float64 // non-IT draw already on the meter this hour
	Down        bool    // site is out this hour: any load on it is a violation
	Price       func(totalMW float64) float64

	// Demand charge: the billing-period rate and the ledger's peak-so-far.
	// The hour's demand component must equal rate × max(0, grid − peak).
	DemandRateUSDPerMW float64
	PeakMW             float64

	// Two-settlement: when on, grid energy settles at RTPriceUSDPerMWh and
	// the day-ahead position (Price(demand+commit) − RT)·commit is part of
	// the hour's bill whatever the dispatch does.
	TwoSettlement    bool
	RTPriceUSDPerMWh float64
	CommitMW         float64

	// Battery physics (capacity 0 = no battery): any claimed charge or
	// discharge must fit the rates, the remaining room and the charge.
	BatCapacityMWh    float64
	BatMaxChargeMW    float64
	BatMaxDischargeMW float64
	BatEfficiency     float64
	BatSoCMWh         float64

	// Classes, when set, replace MWPerLambda and IdleMW with one affine
	// model per server class; claims then split their load in ClassLambda.
	Classes []Class
}

// Class is the auditor's copy of one server class of a multi-class site.
type Class struct {
	MaxLambda   float64 // SLA admission limit of the class, requests/hour
	MWPerLambda float64 // affine power model slope (A)
	IdleMW      float64 // affine power model intercept (B), paid while on
}

// Claim is what the solver asserts for one site. GridMW/ChargeMW/DischargeMW
// and the cost components are tariff-engine extensions; legacy claims that
// leave GridMW zero while asserting IT power audit as grid = IT (no battery).
type Claim struct {
	Lambda  float64
	PowerMW float64 // IT draw
	Rate    float64 // $/MWh the solver priced the site's grid energy at
	CostUSD float64 // energy + demand-charge increment
	On      bool

	GridMW      float64 // metered draw: PowerMW + ChargeMW − DischargeMW
	ChargeMW    float64
	DischargeMW float64
	EnergyUSD   float64 // Rate × GridMW (0 = unclaimed, derived from CostUSD)
	DemandUSD   float64 // DemandRate × max(0, GridMW − PeakMW)

	ClassLambda []float64 // per-class load of a multi-class site, keyed like Site.Classes
}

// Input is the hour's contract: the load to place and the money to place it
// with.
type Input struct {
	TotalLambda   float64
	PremiumLambda float64
	BudgetUSD     float64
	// SettlementUSD is the solver's claimed two-settlement position; the
	// auditor re-derives it from the sites' commitments and rejects a
	// mismatch. It also counts against the budget (it can be negative).
	SettlementUSD float64
	// ServeAll marks the cost-min branch, whose feasibility claim includes
	// serving the entire arrival rate — a shortfall there is a wrong answer
	// even if every site-level constraint holds.
	ServeAll bool
	// BudgetExempt marks the mandatory-premium branches (premium-only and
	// over-capacity), where the paper requires overrunning the budget rather
	// than dropping premium load; the budget row is advisory there.
	BudgetExempt bool
}

// Check verifies a claimed allocation against the site models and the hour's
// contract. It returns nil when every constraint holds within tolerance, and
// a single descriptive error naming the first violated constraint otherwise.
func Check(sites []Site, claims []Claim, in Input) error {
	if len(claims) != len(sites) {
		return fmt.Errorf("audit: %d site claims for %d sites", len(claims), len(sites))
	}

	var servedLambda, totalCost, settlement float64
	for i, c := range claims {
		s := sites[i]
		// The day-ahead position accrues whatever the dispatch does — even
		// for a site that ends up off, its commitment settles.
		if s.TwoSettlement && s.CommitMW > 0 && s.Price != nil {
			settlement += (s.Price(s.DemandMW+s.CommitMW) - s.RTPriceUSDPerMWh) * s.CommitMW
		}
		if bad(c.Lambda) || bad(c.PowerMW) || bad(c.Rate) || bad(c.CostUSD) ||
			bad(c.GridMW) || bad(c.ChargeMW) || bad(c.DischargeMW) || bad(c.EnergyUSD) || bad(c.DemandUSD) {
			return fmt.Errorf("audit: site %d: non-finite claim λ=%v p=%v rate=%v cost=%v grid=%v c=%v g=%v",
				i, c.Lambda, c.PowerMW, c.Rate, c.CostUSD, c.GridMW, c.ChargeMW, c.DischargeMW)
		}
		if c.Lambda < 0 || c.PowerMW < 0 || c.Rate < 0 || c.CostUSD < 0 ||
			c.GridMW < 0 || c.ChargeMW < 0 || c.DischargeMW < 0 || c.DemandUSD < 0 {
			return fmt.Errorf("audit: site %d: negative claim λ=%v p=%v rate=%v cost=%v grid=%v c=%v g=%v",
				i, c.Lambda, c.PowerMW, c.Rate, c.CostUSD, c.GridMW, c.ChargeMW, c.DischargeMW)
		}
		classLoad := 0.0
		for k, l := range c.ClassLambda {
			if bad(l) || l < 0 {
				return fmt.Errorf("audit: site %d: class %d claims λ=%v", i, k, l)
			}
			classLoad += l
		}
		if len(c.ClassLambda) != len(s.Classes) {
			return fmt.Errorf("audit: site %d: %d class loads for %d classes", i, len(c.ClassLambda), len(s.Classes))
		}
		if !c.On {
			if c.Lambda > 0 || c.PowerMW > 0 || c.CostUSD > 0 ||
				c.GridMW > 0 || c.ChargeMW > 0 || c.DischargeMW > 0 || classLoad > 0 {
				return fmt.Errorf("audit: site %d: off but carries λ=%v p=%v cost=%v grid=%v",
					i, c.Lambda, c.PowerMW, c.CostUSD, c.GridMW)
			}
			continue
		}
		if s.Down {
			return fmt.Errorf("audit: site %d: loaded while down", i)
		}
		if c.Lambda > s.MaxLambda*(1+relTol)+relTol {
			return fmt.Errorf("audit: site %d: λ=%v exceeds SLA limit %v", i, c.Lambda, s.MaxLambda)
		}
		if err := checkPower(s, c, classLoad); err != nil {
			return fmt.Errorf("audit: site %d: %w", i, err)
		}
		// Legacy energy-only claims assert IT power without a grid figure:
		// no battery action means grid = IT.
		grid := c.GridMW
		if grid == 0 && c.ChargeMW == 0 && c.DischargeMW == 0 {
			grid = c.PowerMW
		}
		// Battery feasibility: the plan must be executable by the physical
		// store this hour — rates, room at the claimed efficiency, and
		// charge all bound it; discharge can at most offset the IT draw.
		if s.BatCapacityMWh <= 0 {
			if c.ChargeMW > relTol || c.DischargeMW > relTol {
				return fmt.Errorf("audit: site %d: battery action c=%v g=%v without a battery",
					i, c.ChargeMW, c.DischargeMW)
			}
		} else {
			room := math.Max(0, s.BatCapacityMWh-s.BatSoCMWh)
			if c.ChargeMW > s.BatMaxChargeMW*(1+relTol)+relTol {
				return fmt.Errorf("audit: site %d: charge %v MW over rate %v", i, c.ChargeMW, s.BatMaxChargeMW)
			}
			if s.BatEfficiency > 0 && c.ChargeMW*s.BatEfficiency > room*(1+relTol)+relTol {
				return fmt.Errorf("audit: site %d: charge %v MW overfills the store (room %v MWh at η=%v)",
					i, c.ChargeMW, room, s.BatEfficiency)
			}
			if lim := math.Min(s.BatMaxDischargeMW, s.BatSoCMWh); c.DischargeMW > lim*(1+relTol)+relTol {
				return fmt.Errorf("audit: site %d: discharge %v MW over limit %v", i, c.DischargeMW, lim)
			}
			if c.DischargeMW > c.PowerMW*(1+relTol)+relTol {
				return fmt.Errorf("audit: site %d: discharge %v MW exceeds IT draw %v (export)",
					i, c.DischargeMW, c.PowerMW)
			}
		}
		if !close2(grid, c.PowerMW+c.ChargeMW-c.DischargeMW) {
			return fmt.Errorf("audit: site %d: grid %v MW, IT+charge−discharge says %v MW",
				i, grid, c.PowerMW+c.ChargeMW-c.DischargeMW)
		}
		// The supplier cap binds the meter, not the IT draw.
		if grid > s.PowerCapMW+s.SlackMW+relTol*(1+s.PowerCapMW) {
			return fmt.Errorf("audit: site %d: grid draw %v MW over supplier cap %v MW (+%v slack)",
				i, grid, s.PowerCapMW, s.SlackMW)
		}
		if s.TwoSettlement {
			if !close2(c.Rate, s.RTPriceUSDPerMWh) {
				return fmt.Errorf("audit: site %d: claimed rate %v $/MWh, real-time price is %v",
					i, c.Rate, s.RTPriceUSDPerMWh)
			}
		} else if s.Price != nil {
			load := s.DemandMW + grid
			grace := priceGrace * (1 + load)
			if !close2(c.Rate, s.Price(load)) && !close2(c.Rate, s.Price(math.Max(0, load-grace))) {
				return fmt.Errorf("audit: site %d: claimed rate %v $/MWh, tariff says %v at %v MW",
					i, c.Rate, s.Price(load), load)
			}
		}
		wantEnergy := c.Rate * grid
		wantDemand := s.DemandRateUSDPerMW * math.Max(0, grid-s.PeakMW)
		if !close2(c.CostUSD, wantEnergy+wantDemand) {
			return fmt.Errorf("audit: site %d: claimed cost %v, tariff re-derivation says %v",
				i, c.CostUSD, wantEnergy+wantDemand)
		}
		if c.EnergyUSD != 0 && !close2(c.EnergyUSD, wantEnergy) {
			return fmt.Errorf("audit: site %d: claimed energy %v, rate×grid says %v", i, c.EnergyUSD, wantEnergy)
		}
		if c.DemandUSD != 0 && !close2(c.DemandUSD, wantDemand) {
			return fmt.Errorf("audit: site %d: claimed demand charge %v, re-derivation says %v",
				i, c.DemandUSD, wantDemand)
		}
		servedLambda += c.Lambda
		totalCost += c.CostUSD
	}

	// A +Inf budget is the legitimate "uncapped" sentinel; anything else
	// non-finite is corrupt.
	if bad(in.TotalLambda) || math.IsNaN(in.BudgetUSD) || math.IsInf(in.BudgetUSD, -1) || bad(in.SettlementUSD) {
		return fmt.Errorf("audit: non-finite input λ=%v budget=%v settlement=%v",
			in.TotalLambda, in.BudgetUSD, in.SettlementUSD)
	}
	if !close2(in.SettlementUSD, settlement) {
		return fmt.Errorf("audit: claimed settlement %v, commitments re-derive to %v", in.SettlementUSD, settlement)
	}
	slack := relTol * (1 + in.TotalLambda)
	if servedLambda > in.TotalLambda+slack {
		return fmt.Errorf("audit: served %v exceeds arrivals %v", servedLambda, in.TotalLambda)
	}
	if in.ServeAll && servedLambda < in.TotalLambda-slack {
		return fmt.Errorf("audit: cost-min branch served %v of %v arrivals", servedLambda, in.TotalLambda)
	}
	bill := totalCost + settlement
	if !in.BudgetExempt && bill > in.BudgetUSD*(1+relTol)+relTol*(1+math.Abs(bill)) {
		return fmt.Errorf("audit: bill %v (dispatch %v + settlement %v) over budget %v",
			bill, totalCost, settlement, in.BudgetUSD)
	}
	return nil
}

// checkPower re-derives the claimed IT draw from the power model. On a
// multi-class site every class must sit within its own SLA limit, the class
// loads must add up to the site's, and the draw must be the loaded classes'
// Σ A·λ + B, plus at most the idle power of classes switched on unloaded.
func checkPower(s Site, c Claim, classLoad float64) error {
	if len(s.Classes) == 0 {
		if wantP := s.MWPerLambda*c.Lambda + s.IdleMW; !close2(c.PowerMW, wantP) {
			return fmt.Errorf("claimed power %v MW, model says %v MW", c.PowerMW, wantP)
		}
		return nil
	}
	if !close2(classLoad, c.Lambda) {
		return fmt.Errorf("class loads sum to %v, site claims λ=%v", classLoad, c.Lambda)
	}
	loaded, idle := 0.0, 0.0
	for k, cl := range s.Classes {
		l := c.ClassLambda[k]
		if l > cl.MaxLambda*(1+relTol)+relTol {
			return fmt.Errorf("class %d: λ=%v exceeds SLA limit %v", k, l, cl.MaxLambda)
		}
		if l > 0 {
			loaded += cl.MWPerLambda*l + cl.IdleMW
		} else {
			idle += cl.IdleMW
		}
	}
	if c.PowerMW < loaded && !close2(c.PowerMW, loaded) ||
		c.PowerMW > loaded+idle && !close2(c.PowerMW, loaded+idle) {
		return fmt.Errorf("claimed power %v MW, class loads say %v MW (+%v MW idle classes)", c.PowerMW, loaded, idle)
	}
	return nil
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// close2 is symmetric relative-tolerance equality with an absolute floor.
func close2(a, b float64) bool {
	return math.Abs(a-b) <= relTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}
