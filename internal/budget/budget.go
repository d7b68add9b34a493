// Package budget implements the paper's budgeter (§III, §VI-B): it splits a
// monthly electricity budget into hourly budgets proportional to the
// predicted workload of each hour, and carries unused budget forward to the
// remaining invocation periods of the same week.
package budget

import (
	"fmt"
	"math"

	"billcap/internal/timeseries"
)

// HoursPerWeek is the carryover window: unused budget survives within the
// week it was allocated in and resets at week boundaries.
const HoursPerWeek = 168

// Budgeter tracks the monthly budget across the invocation periods of one
// budgeting period (a month of hourly slots).
type Budgeter struct {
	monthly    float64
	shares     timeseries.Series // per-hour base allocation, sums to monthly
	pool       float64           // carryover within the current week (may be negative after a mandatory overrun)
	next       int               // next hour to be recorded
	spent      float64
	violations int      // hours whose spend exceeded their available budget
	metrics    *Metrics // optional gauges (see SetMetrics)
}

// New builds a budgeter for the given monthly budget and the predicted
// hourly workload of the month. Hourly shares are proportional to the
// prediction; an all-zero prediction falls back to uniform shares.
func New(monthlyUSD float64, predicted timeseries.Series) (*Budgeter, error) {
	if math.IsNaN(monthlyUSD) || math.IsInf(monthlyUSD, 0) || monthlyUSD < 0 {
		return nil, fmt.Errorf("budget: bad monthly budget %v", monthlyUSD)
	}
	if len(predicted) == 0 {
		return nil, fmt.Errorf("budget: empty prediction")
	}
	for h, v := range predicted {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("budget: bad prediction %v at hour %d", v, h)
		}
	}
	total := predicted.Sum()
	shares := make(timeseries.Series, len(predicted))
	if total <= 0 {
		for h := range shares {
			shares[h] = monthlyUSD / float64(len(shares))
		}
	} else {
		for h, v := range predicted {
			shares[h] = monthlyUSD * v / total
		}
	}
	return &Budgeter{monthly: monthlyUSD, shares: shares}, nil
}

// Horizon returns the number of hourly slots in the budgeting period.
func (b *Budgeter) Horizon() int { return len(b.shares) }

// Monthly returns the monthly budget.
func (b *Budgeter) Monthly() float64 { return b.monthly }

// Share returns hour h's base allocation (before carryover).
func (b *Budgeter) Share(h int) float64 {
	if h < 0 || h >= len(b.shares) {
		return 0
	}
	return b.shares[h]
}

// HourlyBudget returns the budget available to the next hour: its base share
// plus whatever this week's earlier hours left unused (or overdrew). The
// result is never negative, and once every hour of the period has been
// recorded there is no next hour to fund, so the result is 0 regardless of
// any leftover carryover pool.
func (b *Budgeter) HourlyBudget() float64 {
	if b.next >= b.Horizon() {
		return 0
	}
	v := b.Share(b.next) + b.pool
	if v < 0 {
		return 0
	}
	return v
}

// Record charges the next hour with its realized spend and advances the
// clock. The difference between the hour's available budget and the spend is
// carried into the pool; at each week boundary the pool resets (the paper
// carries unused budget only "to the remaining invocation periods in the
// same week").
func (b *Budgeter) Record(spentUSD float64) error {
	if b.next >= len(b.shares) {
		return fmt.Errorf("budget: period exhausted after %d hours", len(b.shares))
	}
	if spentUSD < 0 {
		return fmt.Errorf("budget: negative spend %v", spentUSD)
	}
	if spentUSD > b.HourlyBudget()*(1+1e-9)+1e-6 {
		b.violations++
		if b.metrics != nil {
			b.metrics.violations.Inc()
		}
	}
	b.pool += b.Share(b.next) - spentUSD
	b.spent += spentUSD
	b.next++
	if b.next%HoursPerWeek == 0 {
		b.pool = 0
	}
	b.metrics.sync(b)
	return nil
}

// State is the budgeter's durable ledger: everything a restarted controller
// needs to continue the budgeting period exactly where the crashed one
// stopped. It round-trips through JSON for the crash-safe WAL/snapshot layer
// (internal/state).
type State struct {
	MonthlyUSD float64   `json:"monthlyUSD"`
	SharesUSD  []float64 `json:"sharesUSD"`
	PoolUSD    float64   `json:"poolUSD"`
	NextHour   int       `json:"nextHour"`
	SpentUSD   float64   `json:"spentUSD"`
	Violations int       `json:"violations"`
}

// Snapshot captures the ledger. The shares slice is copied, so the snapshot
// stays valid while the budgeter keeps recording.
func (b *Budgeter) Snapshot() State {
	return State{
		MonthlyUSD: b.monthly,
		SharesUSD:  append([]float64(nil), b.shares...),
		PoolUSD:    b.pool,
		NextHour:   b.next,
		SpentUSD:   b.spent,
		Violations: b.violations,
	}
}

// Restore rebuilds a budgeter from a snapshot, validating every field — a
// checkpoint that survived a crash may still be stale or hand-edited, and a
// corrupt ledger must fail loudly rather than silently misbudget the month.
func Restore(st State) (*Budgeter, error) {
	switch {
	case math.IsNaN(st.MonthlyUSD) || st.MonthlyUSD < 0:
		return nil, fmt.Errorf("budget: restore: bad monthly budget %v", st.MonthlyUSD)
	case len(st.SharesUSD) == 0:
		return nil, fmt.Errorf("budget: restore: empty shares")
	case st.NextHour < 0 || st.NextHour > len(st.SharesUSD):
		return nil, fmt.Errorf("budget: restore: hour cursor %d outside [0, %d]", st.NextHour, len(st.SharesUSD))
	case math.IsNaN(st.PoolUSD) || math.IsInf(st.PoolUSD, 0):
		return nil, fmt.Errorf("budget: restore: bad pool %v", st.PoolUSD)
	case math.IsNaN(st.SpentUSD) || st.SpentUSD < 0:
		return nil, fmt.Errorf("budget: restore: bad spend %v", st.SpentUSD)
	case st.Violations < 0:
		return nil, fmt.Errorf("budget: restore: negative violation count %d", st.Violations)
	}
	for h, v := range st.SharesUSD {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("budget: restore: bad share %v at hour %d", v, h)
		}
	}
	return &Budgeter{
		monthly:    st.MonthlyUSD,
		shares:     append(timeseries.Series(nil), st.SharesUSD...),
		pool:       st.PoolUSD,
		next:       st.NextHour,
		spent:      st.SpentUSD,
		violations: st.Violations,
	}, nil
}

// Pool returns the current within-week carryover (negative after a
// mandatory premium overrun).
func (b *Budgeter) Pool() float64 { return b.pool }

// Violations counts hours whose realized spend exceeded the budget
// available to them — expected only when mandatory premium service forces
// an overrun (paper §V-B).
func (b *Budgeter) Violations() int { return b.violations }

// Hour returns the index of the next hour to be recorded.
func (b *Budgeter) Hour() int { return b.next }

// Spent returns the cumulative realized spend.
func (b *Budgeter) Spent() float64 { return b.spent }

// Remaining returns monthly budget minus cumulative spend (may be negative
// when mandatory premium service overran the budget).
func (b *Budgeter) Remaining() float64 { return b.monthly - b.spent }

// Utilization returns spend as a fraction of the monthly budget (0 when the
// budget is zero).
func (b *Budgeter) Utilization() float64 {
	if b.monthly == 0 {
		return 0
	}
	return b.spent / b.monthly
}
