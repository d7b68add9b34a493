package core

import (
	"sync"

	"billcap/internal/milp"
)

// solveKind distinguishes the MILP families the two-step algorithm issues.
// The cross-hour cache keeps one root basis per kind, because the problems
// differ structurally (equality vs inequality load row, budget row present
// or not) and their optima drift apart.
type solveKind int

const (
	// kindMinCostTotal is step 1: minimize cost serving all arrivals.
	kindMinCostTotal solveKind = iota
	// kindMaxThroughput is step 2: maximize admitted load within the budget.
	kindMaxThroughput
	// kindMinCostPremium is the step-2 fallback: cost-minimize premium only.
	kindMinCostPremium
	// kindMaxPremiumUncapped is the over-capacity rung: maximum carryable
	// premium load, budget ignored.
	kindMaxPremiumUncapped

	numKinds
)

// rootBasis is one kind's root LP basis from its last optimal solve, with
// the model's variable and row counts it was taken at.
type rootBasis struct {
	basis        []int
	nvars, ncons int
}

// SolveCache carries each solve kind's root LP basis from one hour to the
// next (paper workloads are diurnal: hour h+1 looks like hour h with shifted
// numbers, so the last optimal basis is usually a few pivots from the new
// one). A stored basis is offered only to a model with the same variable and
// row counts, and the LP's crash screen turns any other mismatch into a cold
// start, so a stale entry costs time, never a wrong answer. All methods are
// safe for concurrent use.
type SolveCache struct {
	mu    sync.Mutex
	bases [numKinds]rootBasis
}

// basis returns kind's stored basis when it was taken on a model of the
// given shape, nil otherwise.
func (c *SolveCache) basis(kind solveKind, nvars, ncons int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.bases[kind]; e.nvars == nvars && e.ncons == ncons {
		return e.basis
	}
	return nil
}

func (c *SolveCache) store(kind solveKind, basis []int, nvars, ncons int) {
	c.mu.Lock()
	c.bases[kind] = rootBasis{basis: basis, nvars: nvars, ncons: ncons}
	c.mu.Unlock()
}

// warmOptions crashes this kind's root LP from the basis its last optimal
// solve left, when the cache is on and the model has that solve's shape.
// Tariff hours neither read nor write the cache (see rememberSolve).
func (s *System) warmOptions(so milp.Options, kind solveKind, m *milp.Problem, in HourInput) milp.Options {
	if s.cache != nil && !in.hasTariffExtras() {
		so.StartBasis = s.cache.basis(kind, m.NumVars(), m.NumConstraints())
	}
	return so
}

// rememberSolve records an optimal solve's root basis for the next hour of
// the same kind. Hours with tariff extras (demand charge, two-settlement,
// batteries) neither read nor write the cache: the carried basis was
// measured only on energy-only hours, and skipping them keeps a tariff
// hour's answer independent of which hour solved before it.
func (s *System) rememberSolve(kind solveKind, sol milp.Solution, m *milp.Problem, in HourInput) {
	if s.cache == nil || in.hasTariffExtras() || sol.Status != milp.Optimal {
		return
	}
	s.cache.store(kind, sol.RootBasis, m.NumVars(), m.NumConstraints())
}
