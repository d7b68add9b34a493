package core

import (
	"fmt"
	"math"

	"billcap/internal/dcmodel"
)

// SiteRealization is the ground truth of one site for one hour: discrete
// server/switch counts and the price the market actually charges at the
// realized regional load — independent of whatever model the optimizer used.
type SiteRealization struct {
	Lambda         float64
	Breakdown      dcmodel.PowerBreakdown
	PowerMW        float64
	RegionLoadMW   float64
	PriceUSDPerMWh float64
	CostUSD        float64
	// CapViolated reports a draw above the supplier's cap Ps — the event the
	// paper says suppliers "penalize heavily" (§I). Optimizers that model
	// power fully avoid it; server-only optimizers can trip it.
	CapViolated bool
	// PenaltyUSD is the supplier's charge for the excess above the cap.
	PenaltyUSD float64
	// RespTimeHours is the realized mean response time (0 when off).
	RespTimeHours float64
}

// Realization aggregates the ground truth of one hour.
type Realization struct {
	Sites []SiteRealization
	// CostUSD is the true energy charge of the hour (Σ price × power).
	CostUSD float64
	// PenaltyUSD is the total cap-violation charge of the hour.
	PenaltyUSD float64
	// ServedLambda is the load actually carried (after clamping to what each
	// site's installed servers can hold within SLA).
	ServedLambda float64
	// DroppedLambda is load the dispatcher had to shed because an allocation
	// exceeded a site's physical capacity (should be ~0 for sane deciders).
	DroppedLambda float64
	// CapViolations counts sites above their power cap.
	CapViolations int
}

// Realize evaluates an allocation against the discrete site models and the
// true locational pricing policies. lambdas[i] is the load dispatched to
// site i; demand[i] is that region's background draw in MW.
func (s *System) Realize(lambdas, demand []float64) (Realization, error) {
	if len(lambdas) != len(s.Sites) || len(demand) != len(s.Sites) {
		return Realization{}, fmt.Errorf("%w: realize got %d/%d entries for %d sites",
			ErrBadInput, len(lambdas), len(demand), len(s.Sites))
	}
	out := Realization{Sites: make([]SiteRealization, len(s.Sites))}
	for i, site := range s.Sites {
		lam := lambdas[i]
		if lam < 0 || math.IsNaN(lam) {
			return Realization{}, fmt.Errorf("%w: bad load %v for site %s", ErrBadInput, lam, site.DC.Name)
		}
		// Physical ceiling: the dispatcher cannot make installed servers
		// serve more than the SLA admits; excess is dropped and accounted.
		maxLam, err := site.DC.SLAMaxLambda()
		if err != nil {
			return Realization{}, fmt.Errorf("core: site %s: %w", site.DC.Name, err)
		}
		if lam > maxLam {
			out.DroppedLambda += lam - maxLam
			lam = maxLam
		}
		b, err := site.DC.Evaluate(lam)
		if err != nil {
			return Realization{}, fmt.Errorf("core: site %s: %w", site.DC.Name, err)
		}
		p := b.TotalMW()
		load := demand[i] + p
		price := site.Policy.Price(load)
		r := SiteRealization{
			Lambda:         lam,
			Breakdown:      b,
			PowerMW:        p,
			RegionLoadMW:   load,
			PriceUSDPerMWh: price,
			CostUSD:        price * p, // one-hour invocation period: MW ≡ MWh
			CapViolated:    p > site.DC.PowerCapMW+1e-9,
			RespTimeHours:  b.RespTimeHours,
		}
		if r.CapViolated {
			r.PenaltyUSD = s.opts.capPenalty() * (p - site.DC.PowerCapMW)
		}
		out.Sites[i] = r
		out.CostUSD += r.CostUSD
		out.PenaltyUSD += r.PenaltyUSD
		out.ServedLambda += lam
		if r.CapViolated {
			out.CapViolations++
		}
	}
	return out, nil
}

// BillUSD is the full hourly bill: energy charges plus cap penalties.
func (r Realization) BillUSD() float64 { return r.CostUSD + r.PenaltyUSD }

// Lambdas extracts the per-site loads from a decision, in site order.
func (d Decision) Lambdas() []float64 {
	out := make([]float64, len(d.Sites))
	for i, a := range d.Sites {
		out[i] = a.Lambda
	}
	return out
}
