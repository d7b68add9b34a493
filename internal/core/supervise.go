package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"billcap/internal/audit"
)

// errAuditRejected wraps an audit failure so the ladder can distinguish "the
// solver answered wrong" from "the solver failed": the former must not be
// retried (the solve is deterministic — it would return the same wrong
// answer) and demotes with its own rung for attribution.
var errAuditRejected = errors.New("core: audit rejected decision")

// supervision tunes solveSupervised's retry loop. Fixed constants rather than
// options: the retry budget must fit comfortably inside any plausible hourly
// deadline, and three attempts with sub-second backoff is enough to ride out
// a transient (GC pause, scheduler hiccup, injected fault) without eating
// into the rungs below.
const (
	superviseMaxAttempts = 3
	superviseBackoffBase = 25 * time.Millisecond
	superviseBackoffCap  = 200 * time.Millisecond
)

// solveSupervised runs the MILP/decomposition path under supervision: it
// retries transient failures with capped exponential backoff inside the
// hour's deadline, and runs every successful answer through the independent
// feasibility auditor before accepting it. Deterministic failures (bad input,
// proven infeasibility, context expiry) and audit rejections are surfaced
// immediately — retrying them would burn deadline to reproduce the same
// outcome. Callers hold r.mu.
func (r *Resilient) solveSupervised(ctx context.Context, in HourInput) (Decision, error) {
	backoff := superviseBackoffBase
	var err error
	for attempt := 1; ; attempt++ {
		var dec Decision
		dec, err = r.tryMILP(ctx, in)
		if err == nil {
			if r.failAudit[in.Hour] {
				err = fmt.Errorf("%w: injected fault", errAuditRejected)
			} else if aerr := r.auditDecision(in, dec); aerr != nil {
				err = fmt.Errorf("%w: %v", errAuditRejected, aerr)
			} else {
				return dec, nil
			}
		}
		if attempt >= superviseMaxAttempts || !transient(err) {
			return Decision{}, err
		}
		if !sleepWithin(ctx, backoff) {
			return Decision{}, err
		}
		backoff = min(backoff*2, superviseBackoffCap)
	}
}

// transient reports whether a solve failure is worth retrying: panics and
// unclassified errors are; deterministic rejections and an expired hour are
// not.
func transient(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, errAuditRejected),
		errors.Is(err, ErrBadInput),
		errors.Is(err, ErrInfeasible),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// sleepWithin waits d unless the context expires first or the deadline would
// pass mid-sleep; it reports whether a retry is still worthwhile.
func sleepWithin(ctx context.Context, d time.Duration) bool {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// auditDecision re-checks a decision with the independent auditor, feeding it
// the system's site models and tariff closures but none of the solver's
// arithmetic. Callers hold r.mu.
func (r *Resilient) auditDecision(in HourInput, dec Decision) error {
	sites := make([]audit.Site, len(r.sys.models))
	for i, sm := range r.sys.models {
		dc := sm.site.DC
		fn := r.sys.viewFn(i).Fn
		site := audit.Site{
			MaxLambda:  sm.maxLambda,
			PowerCapMW: dc.PowerCapMW,
			SlackMW:    dc.RoundingSlackMW(),
			DemandMW:   in.DemandMW[i],
			Down:       in.SiteDown(i),
			Price:      fn.Eval,

			DemandRateUSDPerMW: in.DemandChargeUSDPerMW,
			PeakMW:             in.peak(i),
		}
		if sm.multi() {
			for _, pl := range sm.plans {
				site.Classes = append(site.Classes, audit.Class{MaxLambda: pl.MaxLambda, MWPerLambda: pl.A, IdleMW: pl.B})
			}
		} else {
			site.MWPerLambda, site.IdleMW = sm.plans[0].A, sm.plans[0].B
		}
		if in.twoSettlement() {
			site.TwoSettlement = true
			site.RTPriceUSDPerMWh = in.RTPriceUSDPerMWh[i]
			site.CommitMW = in.commit(i)
		}
		if bat := in.battery(i); bat.active() {
			site.BatCapacityMWh = bat.CapacityMWh
			site.BatMaxChargeMW = bat.MaxChargeMW
			site.BatMaxDischargeMW = bat.MaxDischargeMW
			site.BatEfficiency = bat.Efficiency
			site.BatSoCMWh = bat.SoCMWh
		}
		sites[i] = site
	}
	claims := make([]audit.Claim, len(dec.Sites))
	for i, a := range dec.Sites {
		claims[i] = audit.Claim{
			Lambda:  a.Lambda,
			PowerMW: a.PowerMW,
			Rate:    a.PriceUSDPerMWh,
			CostUSD: a.CostUSD,
			On:      a.On,

			GridMW:      a.GridMW,
			ChargeMW:    a.ChargeMW,
			DischargeMW: a.DischargeMW,
			EnergyUSD:   a.EnergyUSD,
			DemandUSD:   a.DemandUSD,
			ClassLambda: a.ClassLambda,
		}
	}
	if len(claims) != len(sites) {
		return fmt.Errorf("audit: decision has %d sites, system has %d", len(claims), len(sites))
	}
	return audit.Check(sites, claims, audit.Input{
		TotalLambda:   in.TotalLambda,
		PremiumLambda: in.PremiumLambda,
		BudgetUSD:     in.BudgetUSD,
		SettlementUSD: dec.SettlementUSD,
		ServeAll:      dec.Step == StepCostMin,
		BudgetExempt:  dec.Step == StepPremiumOnly || dec.Step == StepOverCapacity,
	})
}
