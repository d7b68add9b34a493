// Package billcap is the public API of a reproduction of "Electricity Bill
// Capping for Cloud-Scale Data Centers that Impact the Power Markets"
// (Zhang, Wang & Wang, ICPP 2012).
//
// It manages a network of geographically distributed data centers whose
// power draw is large enough to move locational electricity prices (LMP).
// Every hour a bill capper routes the incoming requests across sites so
// that the electricity bill is minimized and, when a monthly budget is set,
// capped: premium customers keep their QoS unconditionally while ordinary
// traffic is admitted as the budget allows.
//
// Quick start — one capping decision:
//
//	sys, _ := billcap.NewSystem(billcap.PaperSites(), billcap.PaperPolicies(billcap.Policy1), billcap.SystemOptions{})
//	dec, _ := sys.DecideHour(billcap.HourInput{
//	    TotalLambda:   1.5e12,          // requests/hour arriving
//	    PremiumLambda: 1.2e12,          // from paying customers
//	    DemandMW:      []float64{170, 190, 150},
//	    BudgetUSD:     900,             // this hour's budget
//	})
//
// Month-long simulations, the paper's evaluation scenario, strategies and
// baselines are exposed through Scenario / Run / NewCostCapping /
// NewMinOnly. Everything is deterministic and uses only the standard
// library.
package billcap

import (
	"billcap/internal/baseline"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/grid"
	"billcap/internal/hierarchy"
	"billcap/internal/pricing"
	"billcap/internal/sim"
	"billcap/internal/workload"
)

// Core single-hour API.
type (
	// System is a network of data centers under one bill-capping controller.
	System = core.System
	// SystemOptions configure the optimizer (power-model scope, price view).
	SystemOptions = core.Options
	// HourInput is one invocation period's inputs.
	HourInput = core.HourInput
	// Decision is the capper's hourly allocation.
	Decision = core.Decision
	// SiteAlloc is the plan for a single site.
	SiteAlloc = core.SiteAlloc
	// Realization is the billed ground truth of an allocation.
	Realization = core.Realization
	// SolverStats aggregates MILP effort.
	SolverStats = core.SolverStats
	// Step identifies which branch of the algorithm decided the hour.
	Step = core.Step
)

// Decision steps.
const (
	StepCostMin      = core.StepCostMin
	StepBudgetCapped = core.StepBudgetCapped
	StepPremiumOnly  = core.StepPremiumOnly
	StepOverCapacity = core.StepOverCapacity
)

// Data center and market modeling.
type (
	// Site is one data center's physical configuration.
	Site = dcmodel.Site
	// Policy is a locational step-pricing policy.
	Policy = pricing.Policy
	// PolicyVariant selects the paper's pricing-policy families.
	PolicyVariant = pricing.PolicyVariant
)

// Pricing policy variants (paper Fig. 4).
const (
	Policy0 = pricing.Policy0
	Policy1 = pricing.Policy1
	Policy2 = pricing.Policy2
	Policy3 = pricing.Policy3
)

// Simulation API.
type (
	// Scenario configures a month-long simulation.
	Scenario = sim.Config
	// Result is a month's ledger.
	Result = sim.Result
	// HourRecord is one simulated hour.
	HourRecord = sim.HourRecord
	// Decider is a dispatching strategy.
	Decider = sim.Decider
	// Trace is an hourly arrival series.
	Trace = workload.Trace
	// FlashCrowd is a breaking-news load spike injectable into a Trace.
	FlashCrowd = workload.FlashCrowd
	// Demand is a region's hourly background power draw.
	Demand = grid.Demand
	// MinOnlyVariant selects a Min-Only baseline flavour.
	MinOnlyVariant = baseline.Variant
)

// Min-Only baseline variants (paper §VII-A).
const (
	MinOnlyAvg = baseline.Avg
	MinOnlyLow = baseline.Low
)

// NewSystem assembles a bill-capping controller over data centers and their
// locational pricing policies.
func NewSystem(dcs []*Site, policies []Policy, opts SystemOptions) (*System, error) {
	return core.NewSystem(dcs, policies, opts)
}

// PaperSites returns the three data centers of the paper's evaluation
// (§VI-A parameters).
func PaperSites() []*Site { return dcmodel.PaperSites() }

// PaperPolicies returns the PJM-five-bus-derived locational policies.
func PaperPolicies(v PolicyVariant) []Policy { return pricing.PaperPolicies(v) }

// SyntheticSites returns n data centers cycling the paper configurations,
// for scalability studies (the paper's §IV-C uses 13).
func SyntheticSites(n int) []*Site { return dcmodel.SyntheticSites(n) }

// SyntheticPolicies returns n five-level locational policies to match
// SyntheticSites.
func SyntheticPolicies(n int) []Policy { return pricing.Synthetic(n) }

// PaperScenario assembles the paper's full evaluation scenario: three sites,
// a two-month synthetic Wikipedia-like trace, RECO-like background demand
// and the 80/20 premium split. Use Uncapped() to disable the budget.
func PaperScenario(v PolicyVariant, monthlyBudgetUSD float64) (Scenario, error) {
	return sim.PaperScenario(v, monthlyBudgetUSD)
}

// Uncapped returns the budget value that disables capping.
func Uncapped() float64 { return sim.Uncapped() }

// TightBudget returns the scenario's insufficient budget (paper $1.5M role).
func TightBudget() float64 { return sim.TightBudget() }

// AbundantBudget returns the scenario's sufficient budget (paper $2.5M role).
func AbundantBudget() float64 { return sim.AbundantBudget() }

// PaperBudgets returns the five-point budget sweep (paper Fig. 10 roles).
func PaperBudgets() []float64 { return sim.PaperBudgets() }

// NewCostCapping builds the paper's two-step strategy.
func NewCostCapping(dcs []*Site, policies []Policy) (Decider, error) {
	return sim.NewCostCapping(dcs, policies)
}

// NewMinOnly builds a Min-Only baseline (price taker, server-only power).
func NewMinOnly(dcs []*Site, policies []Policy, v MinOnlyVariant) (Decider, error) {
	return baseline.New(dcs, policies, v)
}

// Run replays the scenario's month under the strategy and returns the
// ledger.
func Run(s Scenario, d Decider) (Result, error) { return sim.Run(s, d) }

// Heterogeneous-fleet extension (paper §IX future work): a Site with
// Classes mixes several server generations and runs on System like any
// other site.

// ServerClass is one homogeneous server pool inside a multi-class Site.
type ServerClass = dcmodel.ServerClass

// PaperHeteroSites returns the paper's three locations refitted as
// partially upgraded, multi-class fleets.
func PaperHeteroSites() []*Site { return dcmodel.PaperHeteroSites() }

// Hierarchical-capping extension (paper §IX future work).
type (
	// Coordinator is the two-level bill capper: a load/budget splitter over
	// per-group cappers.
	Coordinator = hierarchy.Coordinator
	// HierarchicalDecision is one hour's two-level outcome.
	HierarchicalDecision = hierarchy.Decision
)

// NewCoordinator partitions the sites into groups of the given sizes and
// builds the two-level capper.
func NewCoordinator(dcs []*Site, policies []Policy, groupSizes []int) (*Coordinator, error) {
	return hierarchy.New(dcs, policies, groupSizes)
}

// NewTimeOfUse builds the Le-style two-price baseline (paper §VIII refs
// [32]-[34]): time-aware on/off-peak tariffs, load-blind.
func NewTimeOfUse(dcs []*Site, policies []Policy) (Decider, error) {
	return baseline.NewTimeOfUse(dcs, policies)
}

// SyntheticTrace generates a deterministic Wikipedia-like workload trace.
func SyntheticTrace(cfg workload.GenConfig) (Trace, error) { return workload.Synthetic(cfg) }

// DefaultTraceConfig is the generator configuration behind PaperScenario.
func DefaultTraceConfig() workload.GenConfig { return workload.DefaultWikipedia() }
