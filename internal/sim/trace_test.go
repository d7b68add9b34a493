package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"billcap/internal/obs"
)

// TestRunEmitsTracePerHour is the issue's acceptance check: a capped run
// with a trace sink attached emits exactly one valid JSON line per
// simulated hour, carrying step, sites, solver effort and ledger state.
func TestRunEmitsTracePerHour(t *testing.T) {
	cfg := mustScenario(t, 60_000, 1) // one-week month, tight budget
	var buf bytes.Buffer
	cfg.Trace = obs.NewJSONSink(&buf)
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != cfg.Month.Len() {
		t.Fatalf("%d trace lines for %d hours", len(lines), cfg.Month.Len())
	}
	steps := map[string]int{}
	for i, ln := range lines {
		var tr obs.DecisionTrace
		if err := json.Unmarshal([]byte(ln), &tr); err != nil {
			t.Fatalf("hour %d: invalid JSON: %v", i, err)
		}
		if tr.Hour != i {
			t.Fatalf("hour %d trace says hour %d", i, tr.Hour)
		}
		if len(tr.Sites) != len(cfg.DCs) {
			t.Fatalf("hour %d: %d site entries", i, len(tr.Sites))
		}
		// A root crashed from a carried basis may finish at its optimum
		// without a pivot.
		if tr.Solver.Solves < 1 || (tr.Solver.Pivots < 1 && tr.Solver.WarmStarts < 1) {
			t.Fatalf("hour %d: empty solver trace %+v", i, tr.Solver)
		}
		if tr.BudgetUSD == nil || tr.Budget == nil {
			t.Fatalf("hour %d: capped run missing budget state", i)
		}
		if tr.RealizedCostUSD <= 0 {
			t.Fatalf("hour %d: realized cost %v", i, tr.RealizedCostUSD)
		}
		steps[tr.Step]++
	}
	if steps["cost-min"]+steps["budget-capped"]+steps["premium-only"]+steps["over-capacity"] != cfg.Month.Len() {
		t.Errorf("unknown steps in traces: %v", steps)
	}
	// The ledger gauges followed the run.
	hours := reg.Counter("billcap_budget_hours_total", "").Value()
	if int(hours) != cfg.Month.Len() {
		t.Errorf("ledger recorded %v hours, want %d", hours, cfg.Month.Len())
	}
	// Trace and result must agree on the total realized bill.
	var sum float64
	for _, ln := range lines {
		var tr obs.DecisionTrace
		_ = json.Unmarshal([]byte(ln), &tr)
		sum += tr.RealizedCostUSD + tr.PenaltyUSD
	}
	if diff := sum - res.TotalBillUSD(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("traced bill %v != result bill %v", sum, res.TotalBillUSD())
	}
}

func TestRunUncappedTraceOmitsBudget(t *testing.T) {
	cfg := mustScenario(t, Uncapped(), 1)
	cfg.Month = cfg.Month.Slice(0, 24)
	var buf bytes.Buffer
	cfg.Trace = obs.NewJSONSink(&buf)
	if _, err := Run(cfg, mustCapping(t, cfg)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 24 {
		t.Fatalf("%d lines, want 24", len(lines))
	}
	var tr obs.DecisionTrace
	if err := json.Unmarshal([]byte(lines[0]), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.BudgetUSD != nil || tr.Budget != nil {
		t.Errorf("uncapped trace carries budget state: %+v", tr)
	}
}

// TestCostCappingCarriesRootBases: the simulator's decider hands each
// hour's root bases to the next, and the trace reports the roots that
// finished from them. On the paper's week nearly every root after the
// first hour's starts warm.
func TestCostCappingCarriesRootBases(t *testing.T) {
	cfg := mustScenario(t, 60_000, 1)
	var buf bytes.Buffer
	cfg.Trace = obs.NewJSONSink(&buf)
	res, err := Run(cfg, mustCapping(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, ln := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var tr obs.DecisionTrace
		if err := json.Unmarshal([]byte(ln), &tr); err != nil {
			t.Fatal(err)
		}
		traced += tr.Solver.WarmStarts
	}
	if traced != res.Solver.WarmStarts {
		t.Errorf("traces count %d warm roots, the result %d", traced, res.Solver.WarmStarts)
	}
	t.Logf("%d of %d roots warm", res.Solver.WarmStarts, res.Solver.Solves)
	if res.Solver.WarmStarts*10 < res.Solver.Solves*9 {
		t.Errorf("%d of %d roots finished from a carried basis, want at least 90%%", res.Solver.WarmStarts, res.Solver.Solves)
	}
}
