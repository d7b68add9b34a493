package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// DecisionTrace is one invocation hour's structured record: which branch of
// the two-step algorithm ran, where the load went, what the MILP search
// cost, and where the budget ledger stands. Sinks receive one per decided
// hour; the JSON encoding is a single line, so a month of traces is a
// greppable 720-line file.
type DecisionTrace struct {
	Hour int    `json:"hour"`
	Step string `json:"step"`
	// Degraded names the degradation-ladder rung that produced the decision
	// ("time-limit", "fallback", "stale", "shed"); empty for a clean optimal
	// solve.
	Degraded string `json:"degraded,omitempty"`

	ArrivedLambda  float64 `json:"arrivedLambda"`
	PremiumLambda  float64 `json:"premiumLambda"`
	Served         float64 `json:"served"`
	ServedPremium  float64 `json:"servedPremium"`
	ServedOrdinary float64 `json:"servedOrdinary"`
	DroppedLambda  float64 `json:"droppedLambda,omitempty"`

	// BudgetUSD is the hour's available budget at decision time; nil when
	// capping is disabled (JSON cannot carry +Inf).
	BudgetUSD        *float64 `json:"budgetUSD,omitempty"`
	PredictedCostUSD float64  `json:"predictedCostUSD"`
	RealizedCostUSD  float64  `json:"realizedCostUSD"`
	PenaltyUSD       float64  `json:"penaltyUSD,omitempty"`
	CapViolations    int      `json:"capViolations,omitempty"`

	// EnergyUSD / DemandUSD / SettlementUSD decompose RealizedCostUSD when a
	// tariff beyond plain energy charges is active; all zero otherwise.
	EnergyUSD     float64 `json:"energyUSD,omitempty"`
	DemandUSD     float64 `json:"demandUSD,omitempty"`
	SettlementUSD float64 `json:"settlementUSD,omitempty"`

	Sites  []SiteTrace  `json:"sites"`
	Solver SolverTrace  `json:"solver"`
	Budget *BudgetTrace `json:"budget,omitempty"`
}

// SiteTrace is one site's realized share of the hour.
type SiteTrace struct {
	Site           string  `json:"site"`
	Lambda         float64 `json:"lambda"`
	PowerMW        float64 `json:"powerMW"`
	PriceUSDPerMWh float64 `json:"priceUSDPerMWh"`
	CostUSD        float64 `json:"costUSD"`
	On             bool    `json:"on"`
	// GridMW is the metered supplier draw (differs from PowerMW only when a
	// co-located battery charged or discharged); SoCMWh is the battery state
	// of charge after the hour. Both omitted outside tariff runs.
	GridMW float64 `json:"gridMW,omitempty"`
	SoCMWh float64 `json:"socMWh,omitempty"`
}

// SolverTrace is the MILP effort behind the hour's decision.
type SolverTrace struct {
	Solves     int     `json:"solves"`
	Nodes      int     `json:"nodes"`
	Pivots     int     `json:"pivots"`
	Incumbents int     `json:"incumbents"`
	Timeouts   int     `json:"timeouts,omitempty"`
	WallMS     float64 `json:"wallMS"`
	// LPRefactorizations / LPBasisUpdates are the sparse LP core's basis
	// work (LU rebuilds, eta-file updates).
	LPRefactorizations int `json:"lpRefactorizations,omitempty"`
	LPBasisUpdates     int `json:"lpBasisUpdates,omitempty"`
	// WarmStarts counts the solves whose root LP finished from a basis
	// carried from an earlier hour. Such a root can crash straight to its
	// optimum, so an hour may report solves with no pivots.
	WarmStarts int `json:"warmStarts,omitempty"`
	// Cutoffs is 1 when step 1 stopped once a bound proved the hour over
	// budget, so step 2 answered without step 1's search.
	Cutoffs int `json:"cutoffs,omitempty"`
	// DecompIterations / DecompGap / DecompDualBound describe the Lagrangian
	// dual-decomposition effort when the fleet-scale path served the hour:
	// subgradient iterations across the hour's step solves, the worst proven
	// relative primal–dual gap, and the last dual bound. All zero on the
	// exact-MILP path.
	DecompIterations int     `json:"decompIterations,omitempty"`
	DecompGap        float64 `json:"decompGap,omitempty"`
	DecompDualBound  float64 `json:"decompDualBound,omitempty"`
}

// BudgetTrace is the carry-forward ledger state after the hour was
// recorded (paper §III).
type BudgetTrace struct {
	ShareUSD     float64 `json:"shareUSD"`     // the hour's base allocation
	PoolUSD      float64 `json:"poolUSD"`      // within-week carryover after recording
	SpentUSD     float64 `json:"spentUSD"`     // cumulative realized spend
	RemainingUSD float64 `json:"remainingUSD"` // monthly budget minus spend
	Violations   int     `json:"violations"`   // hours that overran their budget so far
}

// Sink receives decision traces. Implementations must be safe for
// concurrent use; Run loops abort on the first emission error.
type Sink interface {
	Emit(t DecisionTrace) error
}

// JSONSink writes each trace as one compact JSON line.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSink wraps a writer (file, buffer, pipe) as a line-oriented sink.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit writes one line.
func (s *JSONSink) Emit(t DecisionTrace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(t)
}

// SinkFunc adapts a function to the Sink interface (tests, in-memory
// collectors).
type SinkFunc func(t DecisionTrace) error

// Emit calls the function.
func (f SinkFunc) Emit(t DecisionTrace) error { return f(t) }
