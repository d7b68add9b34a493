package core

import (
	"context"
	"errors"
	"math"
	"time"

	"billcap/internal/milp"
)

// budgetSlack absorbs floating-point noise when comparing a predicted cost
// against the hourly budget.
const budgetSlack = 1e-6

// budgetThreshold is the most a plan may cost and still fit the budget.
func budgetThreshold(budgetUSD float64) float64 {
	return budgetUSD*(1+budgetSlack) + budgetSlack
}

// cutoffMargin is how far step 1's cutoff sits above the budget threshold,
// relative to it. Over 800 seeded 3- and 13-site hours no root bound
// exceeded the predicted cost of its search's answer by more than 1.3e-15
// relative; the margin leaves room for the LP's 1e-7 feasibility tolerance
// besides, and is small enough that few over-budget hours fall between
// threshold and cutoff and solve in full.
const cutoffMargin = 1e-5

// stepOneOptions gives step 1 its cutoff. Step 1 is solved only to learn
// whether the hour's minimum cost fits the budget (paper §V); a solve whose
// lower bound already exceeds the budget threshold by cutoffMargin can stop,
// because the answer it would have found is one step 2 replaces. The cutoff
// is set only where stopping moves no answer:
//   - on energy-only hours, where the step-1 objective is the predicted cost
//     itself (no battery value terms, no settlement constant), so its bound
//     bounds PredictedCostUSD;
//   - on fleets without multi-class sites, where a feasible root LP implies
//     a feasible all-on plan, so a stop never turns an over-capacity hour
//     into a budget-capped one (the decomposition stops only once it holds
//     a feasible plan anyway).
//
// The stopped solve still solved its root LP, so it hands on the root basis
// the full one would have (carried).
func (s *System) stepOneOptions(so milp.Options, in HourInput) milp.Options {
	if !math.IsInf(in.BudgetUSD, 1) && !in.hasTariffExtras() && !s.multiClass {
		so.Cutoff = budgetThreshold(in.BudgetUSD) * (1 + cutoffMargin)
	}
	return so
}

// DecideHour runs the full two-step bill capping algorithm (paper §III):
//
//  1. Minimize cost for the whole workload. If the minimum fits the hourly
//     budget, enforce it.
//  2. Otherwise maximize admitted throughput within the budget. If that
//     serves at least the premium traffic, premium gets full QoS and
//     ordinary traffic gets the remainder. If not even premium fits, fall
//     back to cost-minimizing the premium traffic alone — the budget is
//     knowingly violated because premium QoS is mandatory.
//
// Arrivals beyond fleet capacity are handled by serving the maximum
// carryable load (StepOverCapacity).
//
// When metrics are attached (SetMetrics), every call records its branch,
// latency and MILP effort.
func (s *System) DecideHour(in HourInput) (Decision, error) {
	return s.decideWith(in, s.solveOptions())
}

// DecideHourCtx is DecideHour bounded by ctx: the context's deadline and
// cancellation are translated into the MILP's wall-clock budget, so a
// per-request HTTP timeout propagates all the way into branch-and-bound. A
// solve that expires mid-search answers with its best incumbent
// (DegradeTimeLimit) instead of hanging past the caller's patience.
func (s *System) DecideHourCtx(ctx context.Context, in HourInput) (Decision, error) {
	so, err := boundByCtx(ctx, s.solveOptions())
	if err != nil {
		return Decision{}, err
	}
	return s.decideWith(in, so)
}

// boundByCtx narrows solve options to the context: the tighter of the two
// deadlines wins and the context's cancellation reaches the solver. An
// already-expired context is an error — there is no budget left to solve in.
func boundByCtx(ctx context.Context, so milp.Options) (milp.Options, error) {
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl)
		if remain <= 0 {
			return so, ctx.Err()
		}
		if so.Deadline == 0 || remain < so.Deadline {
			so.Deadline = remain
		}
	}
	so.Cancel = ctx.Done()
	return so, nil
}

func (s *System) decideWith(in HourInput, so milp.Options) (Decision, error) {
	m := s.metrics.Load()
	if m == nil {
		return s.decideHour(in, so)
	}
	start := time.Now()
	dec, err := s.decideHour(in, so)
	m.observe(s, dec, err, time.Since(start))
	return dec, err
}

func (s *System) decideHour(in HourInput, so milp.Options) (Decision, error) {
	dec, err := s.decideSteps(in, so)
	if err == nil && dec.Solver.Timeouts > 0 {
		// Any timed-out solve taints the whole decision: the branch taken may
		// rest on a suboptimal cost estimate.
		dec.Degraded = DegradeTimeLimit
	}
	return dec, err
}

// decideSteps runs the two steps; each starts from the root bases the step
// before it handed on, so the decision returned hands on every kind solved.
func (s *System) decideSteps(in HourInput, so milp.Options) (Decision, error) {
	if err := s.ValidateInput(in); err != nil {
		return Decision{}, err
	}
	var stats SolverStats

	// Above the decomposition threshold every step solves by Lagrangian
	// dual decomposition (internal/decomp) instead of the exact MILP; the
	// branch structure of the two-step algorithm is identical either way.
	minCost, maxThroughput := s.minimizeCost, s.maximizeThroughput
	if s.routeDecomp(in) {
		minCost, maxThroughput = s.decompMinCost, s.decompMaxThroughput
	}

	// Step 1: minimize cost for everything, stopping early once a bound
	// proves the minimum over budget (stepOneOptions).
	d1, err := minCost(in, in.TotalLambda, &stats, s.stepOneOptions(so, in), kindMinCostTotal)
	switch {
	case err == nil && d1.PredictedCostUSD <= budgetThreshold(in.BudgetUSD):
		d1.Step = StepCostMin
		d1.ServedPremium = math.Min(in.PremiumLambda, d1.Served)
		d1.ServedOrdinary = d1.Served - d1.ServedPremium
		d1.Solver = stats
		return d1, nil
	case err == nil, errors.Is(err, errOverBudget):
		// Over budget; step 2 starts from step 1's root basis.
		in.Warm = d1.Warm
	case errors.Is(err, ErrInfeasible):
		// Over capacity; fall through to throughput maximization.
	default:
		return Decision{}, err
	}
	overCapacity := errors.Is(err, ErrInfeasible)

	// Step 2: maximize throughput within the budget.
	d2, err := maxThroughput(in, &stats, so, kindMaxThroughput)
	if err != nil {
		return Decision{}, err
	}
	if d2.Served+budgetSlack*in.TotalLambda >= in.PremiumLambda {
		d2.Step = StepBudgetCapped
		if overCapacity {
			d2.Step = StepOverCapacity
		}
		d2.ServedPremium = math.Min(in.PremiumLambda, d2.Served)
		d2.ServedOrdinary = d2.Served - d2.ServedPremium
		d2.Solver = stats
		return d2, nil
	}
	in.Warm = d2.Warm

	// Step 2 fallback: serve premium only, at minimum cost, over budget.
	d3, err := minCost(in, in.PremiumLambda, &stats, so, kindMinCostPremium)
	if err == nil {
		d3.Step = StepPremiumOnly
		d3.ServedPremium = d3.Served
		d3.ServedOrdinary = 0
		d3.Solver = stats
		return d3, nil
	}
	if !errors.Is(err, ErrInfeasible) {
		return Decision{}, err
	}

	// Premium alone exceeds capacity: serve the maximum carryable premium
	// load, ignoring the budget.
	inPrem := in
	inPrem.TotalLambda = in.PremiumLambda
	inPrem.BudgetUSD = math.Inf(1)
	d4, err := maxThroughput(inPrem, &stats, so, kindMaxPremiumUncapped)
	if err != nil {
		return Decision{}, err
	}
	d4.Step = StepOverCapacity
	d4.ServedPremium = d4.Served
	d4.ServedOrdinary = 0
	d4.Solver = stats
	return d4, nil
}
