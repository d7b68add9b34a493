// Package battery adds per-site stored energy to the bill-capping system,
// after the related work the paper discusses (§VIII, refs [37] Urgaonkar et
// al. and [38] Govindan et al.: "reducing server power bill by tapping into
// stored energy in data centers").
//
// Each site owns a battery (UPS-scale energy store). Every hour, after the
// dispatcher has fixed the site's IT draw, an arbitrage operator decides to
// charge (buy extra energy now) or discharge (serve part of the draw from
// the store), driven by where the hour's locational price sits between the
// site's cheapest and dearest price levels. Charging is refused when the
// extra draw would push the region across a price step or the site over its
// power cap — price-maker awareness applies to batteries too.
package battery

import (
	"fmt"
	"math"

	"billcap/internal/pricing"
	"billcap/internal/timeseries"
)

// Battery is one site's energy store. The zero value is a degenerate
// zero-capacity battery; use New for a validated one.
type Battery struct {
	// CapacityMWh is the usable energy capacity.
	CapacityMWh float64
	// MaxChargeMW and MaxDischargeMW bound the hourly power.
	MaxChargeMW, MaxDischargeMW float64
	// Efficiency is the round-trip efficiency in (0, 1]; losses are charged
	// on the way in.
	Efficiency float64

	soc float64 // state of charge, MWh
}

// New validates and returns an empty battery: capacity and rates must be
// finite and nonnegative, efficiency in (0, 1].
func New(capacityMWh, maxChargeMW, maxDischargeMW, efficiency float64) (*Battery, error) {
	switch {
	case !isFinite(capacityMWh) || capacityMWh < 0:
		return nil, fmt.Errorf("battery: capacity %v", capacityMWh)
	case !isFinite(maxChargeMW) || maxChargeMW < 0 || !isFinite(maxDischargeMW) || maxDischargeMW < 0:
		return nil, fmt.Errorf("battery: rates %v/%v", maxChargeMW, maxDischargeMW)
	case math.IsNaN(efficiency) || efficiency <= 0 || efficiency > 1:
		return nil, fmt.Errorf("battery: efficiency %v", efficiency)
	}
	return &Battery{
		CapacityMWh:    capacityMWh,
		MaxChargeMW:    maxChargeMW,
		MaxDischargeMW: maxDischargeMW,
		Efficiency:     efficiency,
	}, nil
}

// SoC returns the current state of charge in MWh.
func (b *Battery) SoC() float64 { return b.soc }

// SetSoC restores a state of charge (e.g. from a crash-safe snapshot). The
// value is clamped into [0, CapacityMWh]; non-finite values reset to empty.
func (b *Battery) SetSoC(mwh float64) {
	if !isFinite(mwh) || mwh < 0 {
		mwh = 0
	}
	if mwh > b.CapacityMWh {
		mwh = b.CapacityMWh
	}
	b.soc = mwh
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Charge stores up to gridMW of grid power for one hour and returns the
// grid power actually drawn (losses make stored energy smaller).
// Non-finite requests (NaN, ±Inf) are rejected: `gridMW <= 0` is false for
// NaN, so without the explicit check math.Min would propagate NaN into the
// state of charge and poison the battery for the rest of the run.
func (b *Battery) Charge(gridMW float64) float64 {
	if !isFinite(gridMW) || gridMW <= 0 || b.CapacityMWh == 0 {
		return 0
	}
	gridMW = math.Min(gridMW, b.MaxChargeMW)
	room := b.CapacityMWh - b.soc
	maxGrid := room / b.Efficiency
	gridMW = math.Min(gridMW, maxGrid)
	if gridMW <= 0 {
		return 0
	}
	b.soc += gridMW * b.Efficiency
	return gridMW
}

// Discharge serves up to wantMW of load from the store for one hour and
// returns the power actually delivered. Non-finite requests are rejected for
// the same reason as in Charge.
func (b *Battery) Discharge(wantMW float64) float64 {
	if !isFinite(wantMW) || wantMW <= 0 {
		return 0
	}
	wantMW = math.Min(wantMW, b.MaxDischargeMW)
	wantMW = math.Min(wantMW, b.soc)
	if wantMW <= 0 {
		return 0
	}
	b.soc -= wantMW
	return wantMW
}

// Operator runs threshold arbitrage for one site.
type Operator struct {
	Battery *Battery
	Policy  pricing.Policy
	// CapMW is the site's supplier power cap; charging never exceeds it.
	CapMW float64
	// LowFrac and HighFrac position the charge/discharge thresholds within
	// the observed price distribution (quantiles; defaults 0.25 and 0.75).
	LowFrac, HighFrac float64
	// history is a ring of recently observed pre-action prices; thresholds
	// adapt to what the market actually does rather than to the policy's
	// theoretical band (which a price-maker-aware dispatcher rarely visits).
	history []float64
	histAt  int
	full    bool
}

// historyLen is one week of hourly prices.
const historyLen = 168

// NewOperator returns an operator with default quantile thresholds.
func NewOperator(b *Battery, p pricing.Policy, capMW float64) *Operator {
	return &Operator{
		Battery: b, Policy: p, CapMW: capMW,
		LowFrac: 0.25, HighFrac: 0.75,
		history: make([]float64, 0, historyLen),
	}
}

// observe records a realized price into the ring.
func (o *Operator) observe(price float64) {
	if len(o.history) < historyLen {
		o.history = append(o.history, price)
		return
	}
	o.full = true
	o.history[o.histAt] = price
	o.histAt = (o.histAt + 1) % historyLen
}

// thresholds derives the charge/discharge trigger prices. Until a day of
// history accumulates it falls back to the policy's rate band. Arbitrage
// must beat the round-trip loss: if the spread is thinner than what
// efficiency eats, the operator idles. The idle sentinel is
// (low, high) = (-Inf, +Inf) so that neither `price <= low` nor
// `price >= high` can ever trigger — a finite sentinel like (1, 0) would
// still fire the charge branch for any price at or below $1/MWh, which
// real-time markets do produce.
func (o *Operator) thresholds() (low, high float64) {
	if len(o.history) < 24 {
		mn, mx := o.Policy.Fn.Min(), o.Policy.Fn.Max()
		span := mx - mn
		low = mn + o.LowFrac*span
		high = mn + o.HighFrac*span
	} else {
		sorted := append(timeseries.Series(nil), o.history...)
		low = sorted.Quantile(o.LowFrac)
		high = sorted.Quantile(o.HighFrac)
	}
	// Profitability floor: buying 1 MWh costs low/η to deliver 1 MWh later.
	// This applies to the cold-start policy band too — a thin band with a
	// lossy battery would otherwise arbitrage at a guaranteed loss for the
	// whole first day.
	if eff := o.Battery.Efficiency; eff > 0 && high*eff < low {
		return math.Inf(-1), math.Inf(1) // spread too thin: idle
	}
	return low, high
}

// Step decides the hour's battery action for a site drawing itMW of IT
// power with background demand demandMW, and returns the resulting grid
// draw and the price actually paid for it. Charging respects both the power
// cap and the price step the region currently sits in (never crossing a
// boundary upward just to store energy).
func (o *Operator) Step(itMW, demandMW float64) (gridMW, priceUSDPerMWh float64) {
	price := o.Policy.Price(demandMW + itMW)
	low, high := o.thresholds()
	o.observe(price)
	gridMW = itMW

	switch {
	case price <= low:
		// Cheap hour: charge as much as the cap and the price segment allow.
		headroom := o.CapMW - itMW
		// Stay strictly inside the current price segment.
		seg := o.Policy.Fn.Segment(demandMW + itMW)
		if _, hi := o.Policy.Fn.SegmentBounds(seg); !math.IsInf(hi, 1) {
			headroom = math.Min(headroom, hi-(demandMW+itMW)-1e-6)
		}
		if headroom > 0 {
			gridMW += o.Battery.Charge(headroom)
		}
	case price >= high:
		// Dear hour: serve as much of the draw as possible from the store.
		gridMW -= o.Battery.Discharge(itMW)
	}
	return gridMW, o.Policy.Price(demandMW + gridMW)
}
