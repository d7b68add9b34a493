package lp_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/lp"
	"billcap/internal/lpparse"
	"billcap/internal/milp"
	"billcap/internal/pricing"
)

// paperWeek builds a seeded pseudo-diurnal week of hour inputs for the
// paper's three sites: light and heavy hours, and a few single-site outages.
func paperWeek(seed int64) []core.HourInput {
	r := rand.New(rand.NewSource(seed))
	ins := make([]core.HourInput, 168)
	for h := range ins {
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(h%24)/24)
		total := 1.4e12 * diurnal * (0.9 + 0.2*r.Float64())
		in := core.HourInput{
			Hour:          h,
			TotalLambda:   total,
			PremiumLambda: total * (0.3 + 0.2*r.Float64()),
			DemandMW: []float64{
				150 + 60*r.Float64(),
				160 + 60*r.Float64(),
				140 + 60*r.Float64(),
			},
			BudgetUSD: math.Inf(1),
		}
		if h%41 == 40 {
			in.Down = []bool{false, false, false}
			in.Down[r.Intn(3)] = true
		}
		ins[h] = in
	}
	return ins
}

// coreTally sums the two cores' work across the LPs compared.
type coreTally struct {
	lps                  int
	sparseUpdates        int
	denseFactorizeEffort int
}

// compareCores solves p on the sparse core alone and on the dense oracle,
// and requires the same status, objectives within 1e-6 relative, and a
// sparse point that satisfies every row and bound.
func compareCores(t *testing.T, name string, p *lp.Problem, tally *coreTally) {
	t.Helper()
	ss, ok := p.SolveSparse()
	if !ok {
		t.Fatalf("%s: sparse core hit a numerical wall", name)
	}
	ds := p.SolveDense()
	tally.lps++
	tally.sparseUpdates += ss.BasisUpdates
	tally.denseFactorizeEffort += ds.Refactorizations + ds.BasisUpdates
	if ss.Status != ds.Status {
		t.Fatalf("%s: sparse %v vs dense %v", name, ss.Status, ds.Status)
	}
	if ss.Status != lp.Optimal {
		return
	}
	if diff := math.Abs(ss.Objective - ds.Objective); diff > 1e-6*math.Max(1, math.Abs(ds.Objective)) {
		t.Errorf("%s: sparse objective %v vs dense %v (diff %g)", name, ss.Objective, ds.Objective, diff)
	}
	if res := p.CheckFeasible(ss.X, 1e-6); len(res) != 0 {
		t.Errorf("%s: sparse point violates %v", name, res)
	}
}

// TestSparseWeekMatchesDenseOracle cross-checks the sparse core against the
// dense tableau on the LPs the capper actually solves. For every hour of a
// seeded 168-hour paper week it dumps the step-1 cost-minimization MILP
// (System.WriteHourModel, read back by lpparse) and compares the root
// relaxation plus, for each binary in turn, the relaxation with that binary
// fixed to 0 and to 1 — the bound changes branch and bound makes. It then
// compares the milp.NewPaperHour roots at the paper's 5- and 13-site scales.
// Run under -race in CI.
func TestSparseWeekMatchesDenseOracle(t *testing.T) {
	sys, err := core.NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tally coreTally
	var buf bytes.Buffer
	for _, in := range paperWeek(11) {
		buf.Reset()
		if err := sys.WriteHourModel(&buf, in, in.TotalLambda); err != nil {
			t.Fatalf("hour %d: %v", in.Hour, err)
		}
		parsed, err := lpparse.Parse(&buf)
		if err != nil {
			t.Fatalf("hour %d: dumped model does not parse: %v", in.Hour, err)
		}
		m := parsed.Problem
		p := m.Problem
		compareCores(t, fmt.Sprintf("hour %d root", in.Hour), p, &tally)
		for v := 0; v < p.NumVars(); v++ {
			if !m.IsInteger(v) {
				continue
			}
			lo, hi := p.VarBounds(v)
			for _, fix := range []float64{0, 1} {
				p.SetVarBounds(v, fix, fix)
				compareCores(t, fmt.Sprintf("hour %d %s=%g", in.Hour, p.VarName(v), fix), p, &tally)
			}
			p.SetVarBounds(v, lo, hi)
		}
	}
	for _, sites := range []int{5, 13} {
		m := milp.NewPaperHour(sites, milp.PaperHourBudget(sites, 0))
		compareCores(t, fmt.Sprintf("paper hour N=%d root", sites), m.Problem, &tally)
	}

	// The counters must tell the two cores apart: the sparse core performs
	// eta updates, while the dense tableau reports no factorization work.
	if tally.sparseUpdates == 0 {
		t.Errorf("%d sparse solves reported no basis updates", tally.lps)
	}
	if tally.denseFactorizeEffort != 0 {
		t.Errorf("dense oracle reported %d factorization steps", tally.denseFactorizeEffort)
	}
}
