package core

import (
	"sync"

	"billcap/internal/lp"
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

// SolveCache carries each solve kind's root LP basis from one hour to the
// next (paper workloads are diurnal: hour h+1 looks like hour h with shifted
// numbers, so the last optimal basis is usually a few pivots from the new
// one). The basis names its columns (lp.Basis), so it crashes the next
// hour's model whatever its shape: price segments moving into or out of
// reach change the model's variable and row counts, and the LP's crash
// repairs what no longer fits. A stale entry costs pivots, never a wrong
// answer. All methods are safe for concurrent use.
type SolveCache struct {
	mu    sync.Mutex
	bases [numKinds]lp.Basis
}

// basis returns kind's stored basis (empty before its first optimal solve).
func (c *SolveCache) basis(kind solveKind) lp.Basis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[kind]
}

func (c *SolveCache) store(kind solveKind, b lp.Basis) {
	c.mu.Lock()
	c.bases[kind] = b
	c.mu.Unlock()
}

// warmOptions crashes this kind's root LP from the basis its last optimal
// solve left, when the cache is on. Tariff hours neither read nor write the
// cache (see rememberSolve).
func (s *System) warmOptions(so milp.Options, kind solveKind, in HourInput) milp.Options {
	if s.cache != nil && !in.hasTariffExtras() {
		so.StartBasis = s.cache.basis(kind)
	}
	return so
}

// rememberSolve records an optimal solve's root basis for the next hour of
// the same kind. Hours with tariff extras (demand charge, two-settlement,
// batteries) neither read nor write the cache: the carried basis was
// measured only on energy-only hours, and skipping them keeps a tariff
// hour's answer independent of which hour solved before it.
func (s *System) rememberSolve(kind solveKind, sol milp.Solution, in HourInput) {
	if s.cache == nil || in.hasTariffExtras() || sol.Status != milp.Optimal {
		return
	}
	s.cache.store(kind, sol.RootBasis)
}
