package core

import (
	"billcap/internal/lp"
	"billcap/internal/milp"
)

// solveKind distinguishes the MILP families the two-step algorithm issues.
// RootBases keeps one root basis per kind, because the problems differ
// structurally (equality vs inequality load row, budget row present or not)
// and their optima drift apart.
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

// RootBases holds one root LP basis per solve kind, carried from one hour
// to the next: hour h+1 looks like hour h with shifted numbers, so the last
// optimal basis is usually a few pivots from the new one. An hour reads them
// from HourInput.Warm and returns them in Decision.Warm, with each kind it
// solved to optimality replaced; whoever owns the sequence of hours carries
// them on. Each basis names its columns (lp.Basis), so it crashes the next
// hour's model whatever its shape, and a stale one costs pivots, never a
// wrong answer. The zero value starts every kind cold.
type RootBases [numKinds]lp.Basis

// warmOptions crashes kind's root LP from the hour's carried basis. Hours
// with tariff extras (demand charge, two-settlement, batteries) start cold
// and hand the bases on as they got them: the carried basis was measured
// only on energy-only hours, and skipping them keeps a tariff hour's answer
// independent of the hours before it.
func warmOptions(so milp.Options, kind solveKind, in HourInput) milp.Options {
	if !in.hasTariffExtras() {
		so.StartBasis = in.Warm[kind]
	}
	return so
}

// carried returns the bases the hour hands on after solving kind. A solve
// stopped at its cutoff solved its root as an optimal one does, so it hands
// on the same basis.
func carried(in HourInput, kind solveKind, sol milp.Solution) RootBases {
	warm := in.Warm
	if (sol.Status == milp.Optimal || sol.Status == milp.Cutoff) && !in.hasTariffExtras() {
		warm[kind] = sol.RootBasis
	}
	return warm
}
