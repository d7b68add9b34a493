package sim

import (
	"fmt"
	"math"
	"math/rand"

	"billcap/internal/controller"
	"billcap/internal/core"
	"billcap/internal/forecast"
	"billcap/internal/pricing"
)

// tariffRig is one run's tariff ground truth: the composable tariff the
// market actually bills, the position (the billing-period peak ledger
// behind its demand charge and the physical batteries), and the
// precomputed day-ahead position (commitments and synthesized real-time
// prices) for two-settlement runs. One rig serves one Run; RunAll builds one
// per strategy so ledgers and batteries never cross-contaminate.
type tariffRig struct {
	tariff pricing.Tariff
	pos    *controller.Position
	commit [][]float64 // [site][hour] day-ahead commitments, nil outside two-settlement
	rt     [][]float64 // [site][hour] real-time prices, nil outside two-settlement
}

// hasTariff reports whether the configuration bills anything beyond plain
// energy charges (or operates storage, which changes the metered draw).
func (c Config) hasTariff() bool {
	return c.DemandChargeUSDPerMWMonth > 0 || c.TwoSettlement || len(c.Batteries) > 0
}

func (c Config) rtSpread() float64 {
	if c.RTSpread <= 0 {
		return 0.15
	}
	return c.RTSpread
}

// newTariffRig assembles the run's tariff machinery. The two-settlement
// position is struck before the month starts, exactly as a day-ahead market
// requires: commitments follow the hour-of-week forecast fitted on the
// history (split across sites in proportion to SLA capacity, converted to
// grid draw through each site's true power model), and the real-time price
// is the day-ahead price perturbed by seeded mean-one lognormal noise. Both
// series are deterministic in the config, so a crash-restarted run re-derives
// the identical market position.
func newTariffRig(cfg Config) (*tariffRig, error) {
	n := len(cfg.DCs)
	pos, err := controller.NewPosition(cfg.DemandChargeUSDPerMWMonth, cfg.Policies, cfg.Batteries)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	rig := &tariffRig{
		pos: pos,
		tariff: pricing.Tariff{
			Energy:                    cfg.Policies,
			DemandChargeUSDPerMWMonth: cfg.DemandChargeUSDPerMWMonth,
		},
	}

	if cfg.TwoSettlement {
		hw, err := forecast.FitHourOfWeek(cfg.History.Rates)
		if err != nil {
			return nil, err
		}
		pred := hw.PredictSeries(cfg.Month.Len())

		shares := make([]float64, n)
		total := 0.0
		for i, dc := range cfg.DCs {
			maxLam, err := dc.SLAMaxLambda()
			if err != nil {
				return nil, fmt.Errorf("sim: site %s: %w", dc.Name, err)
			}
			shares[i] = maxLam
			total += maxLam
		}

		rig.commit = make([][]float64, n)
		rig.rt = make([][]float64, n)
		for i := range rig.commit {
			rig.commit[i] = make([]float64, cfg.Month.Len())
			rig.rt[i] = make([]float64, cfg.Month.Len())
		}
		sigma := cfg.rtSpread()
		rng := rand.New(rand.NewSource(cfg.RTSeed + 1))
		for h := 0; h < cfg.Month.Len(); h++ {
			for i, dc := range cfg.DCs {
				lam := pred[h] * shares[i] / total
				b, err := dc.Evaluate(lam)
				if err != nil {
					return nil, fmt.Errorf("sim: site %s: %w", dc.Name, err)
				}
				c := math.Min(b.TotalMW(), dc.PowerCapMW)
				da := cfg.Policies[i].Price(cfg.Demand[i].At(h) + c)
				// Mean-one lognormal deviation keeps E[RT] = DA.
				rt := da * math.Exp(sigma*rng.NormFloat64()-sigma*sigma/2)
				rig.commit[i][h] = c
				rig.rt[i][h] = rt
			}
		}
		rig.tariff.Settlement = &pricing.TwoSettlement{CommitMW: rig.commit, RTUSDPerMWh: rig.rt}
	}

	if err := rig.tariff.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return rig, nil
}

// TariffBlind wraps a decider so it never sees the tariff extras: every hour
// is dispatched as if the demand charge, market position and batteries did
// not exist, while the market still bills them. This is the energy-only
// baseline that tariff-aware dispatch is measured against.
func TariffBlind(d Decider) Decider { return tariffBlind{d} }

type tariffBlind struct{ inner Decider }

func (b tariffBlind) Name() string { return b.inner.Name() + " (tariff-blind)" }

func (b tariffBlind) Decide(in core.HourInput) (core.Decision, error) {
	in.DemandChargeUSDPerMW = 0
	in.PeakMW = nil
	in.RTPriceUSDPerMWh = nil
	in.CommitMW = nil
	in.Batteries = nil
	return b.inner.Decide(in)
}

// attach adds the hour's tariff state to the decider's input: the demand
// charge and peak-so-far ledger, the batteries' current state of charge,
// and the market position.
func (tr *tariffRig) attach(in *core.HourInput) {
	tr.pos.Attach(in)
	if tr.rt != nil {
		h := in.Hour
		rt := make([]float64, len(tr.rt))
		cm := make([]float64, len(tr.commit))
		for i := range rt {
			rt[i] = tr.rt[i][h]
			cm[i] = tr.commit[i][h]
		}
		in.RTPriceUSDPerMWh = rt
		in.CommitMW = cm
	}
}
