// Package controller holds what the paper's hourly control loop (§III, §V)
// carries from one hour to the next, for the simulator (sim.Run) and the
// daemon (api.Server) alike: each committed hour runs Position.Attach →
// decide → Position.Commit → Journal.Record, so it is planned from the
// position the previous hour left and a restart resumes after the last
// recorded hour.
package controller

import (
	"fmt"
	"math"
	"sync"

	"billcap/internal/battery"
	"billcap/internal/core"
	"billcap/internal/pricing"
)

// Position is the billing-period tariff position: the demand-charge rate,
// the peak-so-far ledger it ratchets against, and the per-site batteries
// whose charge the MILP plans around. Its methods are safe for concurrent
// use, so lock-free what-if readers may attach while a commit runs.
type Position struct {
	rate  float64            // demand charge, $/MW-month
	specs []core.BatterySpec // SoCMWh refreshed on attach

	mu     sync.Mutex
	ledger *pricing.PeakLedger
	// bats is nil without a bank. A site without a battery holds the zero
	// Battery, which stores nothing and so moves no energy.
	bats []battery.Battery
}

// NewPosition builds the position for one site per policy: a demand charge
// at the given $/MW-month rate (0 disables that component) and optional
// batteries (nil, or one spec per site; a zero-capacity spec means no
// battery at that site). A spec whose value is 0 takes its site's mean LMP.
func NewPosition(demandChargeUSDPerMWMonth float64, policies []pricing.Policy, batteries []core.BatterySpec) (*Position, error) {
	if r := demandChargeUSDPerMWMonth; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return nil, fmt.Errorf("controller: demand charge %v $/MW-month", r)
	}
	n := len(policies)
	if len(batteries) != 0 && len(batteries) != n {
		return nil, fmt.Errorf("controller: %d battery specs for %d sites", len(batteries), n)
	}
	p := &Position{rate: demandChargeUSDPerMWMonth, ledger: pricing.NewPeakLedger(n)}
	if len(batteries) > 0 {
		p.bats = make([]battery.Battery, n)
		p.specs = make([]core.BatterySpec, n)
	}
	for i, spec := range batteries {
		// The spec must pass the hour's own validation, or every hour
		// attached to this position would be rejected.
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("controller: site %d: %w", i, err)
		}
		if spec.CapacityMWh == 0 {
			continue
		}
		b, err := battery.New(spec.CapacityMWh, spec.MaxChargeMW, spec.MaxDischargeMW, spec.Efficiency)
		if err != nil {
			return nil, fmt.Errorf("controller: site %d battery: %w", i, err)
		}
		b.SetSoC(spec.SoCMWh)
		if spec.ValueUSDPerMWh == 0 {
			spec.ValueUSDPerMWh = policies[i].Fn.Mean()
		}
		p.bats[i], p.specs[i] = *b, spec
	}
	return p, nil
}

// Attach fills the tariff fields the hour's input left unset: the demand
// charge rate, the peaks so far (when that rate is positive) and the
// battery bank at its current charge (a zero spec at a site without a
// battery). A field the caller set is left alone, so a what-if request can
// pose its own ledger or batteries; attached to an empty input, it reads
// the whole position.
func (p *Position) Attach(in *core.HourInput) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if in.DemandChargeUSDPerMW == 0 {
		in.DemandChargeUSDPerMW = p.rate
	}
	if in.PeakMW == nil && p.rate > 0 {
		in.PeakMW = p.ledger.Peaks()
	}
	if in.Batteries == nil && p.bats != nil {
		in.Batteries = append([]core.BatterySpec(nil), p.specs...)
		for i := range p.bats {
			in.Batteries[i].SoCMWh = p.bats[i].SoC()
		}
	}
}

// Commit executes a decision's planned battery actions and ratchets the
// ledger on the resulting meter readings. itMW is each site's metered IT
// draw; its grid draw is it + charge − discharge. Discharge is clamped to
// the IT draw (no export) and to the stored energy, charge to the
// battery's rate and headroom, and a down site moves no energy. The ledger
// moves only under a positive demand charge. Commit returns the grid draws
// and the MW by which they raised the peaks.
func (p *Position) Commit(dec core.Decision, in core.HourInput, itMW []float64) (gridMW []float64, raisedMW float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gridMW = make([]float64, len(itMW))
	for i, it := range itMW {
		var c, g float64
		if i < len(p.bats) && i < len(dec.Sites) && !in.SiteDown(i) {
			g = p.bats[i].Discharge(math.Min(dec.Sites[i].DischargeMW, it))
			c = p.bats[i].Charge(dec.Sites[i].ChargeMW)
		}
		gridMW[i] = it + c - g
	}
	if p.rate > 0 {
		raisedMW = p.ledger.Observe(gridMW)
	}
	return gridMW, raisedMW
}

// Snapshot returns the peak ledger and each site's stored energy (nil
// without a bank).
func (p *Position) Snapshot() (pricing.PeakState, []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var socs []float64
	for i := range p.bats {
		socs = append(socs, p.bats[i].SoC())
	}
	return p.ledger.Snapshot(), socs
}

// Restore replaces the ledger and the stored energy with recovered values;
// a nil argument leaves its part alone. A corrupt or wrong-length ledger,
// or a charge vector whose length is not the bank's (any charge at all
// without a bank), is an error and restores nothing.
func (p *Position) Restore(peaks *pricing.PeakState, socMWh []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if peaks != nil && len(peaks.PeaksMW) != p.ledger.NumSites() {
		return fmt.Errorf("controller: restored %d peaks for %d sites", len(peaks.PeaksMW), p.ledger.NumSites())
	}
	if socMWh != nil && len(socMWh) != len(p.bats) {
		return fmt.Errorf("controller: restored %d battery states for %d sites", len(socMWh), len(p.bats))
	}
	if peaks != nil {
		if err := p.ledger.Restore(*peaks); err != nil {
			return fmt.Errorf("controller: %w", err)
		}
	}
	for i := range socMWh {
		p.bats[i].SetSoC(socMWh[i])
	}
	return nil
}
