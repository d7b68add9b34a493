package dispatch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewTable([]float64{0, 0}); err == nil {
		t.Error("all-zero allocation accepted")
	}
	if _, err := NewTable([]float64{1, -1}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := NewTable([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN load accepted")
	}
}

// TestNewTableRejectsInf is the regression test for the +Inf validation bug:
// the `l < 0 || math.IsNaN(l)` check passed +Inf, the total became +Inf, and
// every weight collapsed to 0 (finite/Inf) or NaN (Inf/Inf) — a table that
// routed everything to site 0 or nowhere at all.
func TestNewTableRejectsInf(t *testing.T) {
	if _, err := NewTable([]float64{1e12, math.Inf(1)}); err == nil {
		t.Fatal("+Inf load accepted")
	}
	if _, err := NewTable([]float64{math.Inf(1), math.Inf(1)}); err == nil {
		t.Fatal("all-Inf loads accepted")
	}
	if _, err := NewTable([]float64{1, math.Inf(-1)}); err == nil {
		t.Fatal("-Inf load accepted")
	}
	// Individually finite loads whose sum overflows are just as unusable.
	if _, err := NewTable([]float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Fatal("overflowing total accepted")
	}
}

// TestNewGateRejectsNonFinite is the regression test for the NaN validation
// bug: `servedOrdinary < 0` is false for NaN, so the gate was built with a
// NaN ordinaryRate and Admit silently dropped every ordinary request forever
// (NaN credit never reaches 1).
func TestNewGateRejectsNonFinite(t *testing.T) {
	bad := [][2]float64{
		{math.NaN(), 100},
		{30, math.NaN()},
		{math.Inf(1), 100},
		{30, math.Inf(1)},
		{math.Inf(-1), 100},
	}
	for _, c := range bad {
		if _, err := NewGate(c[0], c[1]); err == nil {
			t.Errorf("NewGate(%v, %v) accepted", c[0], c[1])
		}
	}
}

func TestRouteProportions(t *testing.T) {
	tbl, err := NewTable([]float64{3e11, 1e11, 6e11})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	counts := tbl.RouteN(n)
	want := []float64{0.3, 0.1, 0.6}
	for i, c := range counts {
		got := float64(c) / n
		if math.Abs(got-want[i]) > 0.001 {
			t.Errorf("site %d fraction %v, want %v", i, got, want[i])
		}
	}
}

// TestRouteDiscrepancyProperty: after any prefix of n requests, every
// site's count stays within ±1.5 of n·weight — the low-discrepancy
// guarantee real DNS-weighting approximations only approach.
func TestRouteDiscrepancyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(6)
		lambdas := make([]float64, k)
		for i := range lambdas {
			lambdas[i] = r.Float64() * 1e12
		}
		lambdas[r.Intn(k)] += 1 // ensure nonzero
		tbl, err := NewTable(lambdas)
		if err != nil {
			return false
		}
		w := tbl.Weights()
		counts := make([]float64, k)
		for n := 1; n <= 500; n++ {
			counts[tbl.Route()]++
			for i := range counts {
				if math.Abs(counts[i]-float64(n)*w[i]) > 1.5 {
					t.Logf("seed %d: site %d off by %v after %d", seed, i, counts[i]-float64(n)*w[i], n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// allSitesTable is Table.Route's reference: the largest-remainder walk over
// every site, idle ones included, on every request.
type allSitesTable struct{ weights, credit []float64 }

func (o *allSitesTable) route() int {
	best, bestCredit := 0, math.Inf(-1)
	for i := range o.credit {
		o.credit[i] += o.weights[i]
		if o.credit[i] > bestCredit {
			bestCredit = o.credit[i]
			best = i
		}
	}
	o.credit[best]--
	return best
}

// TestRouteMatchesAllSitesWalk: walking only the positive-weight sites
// routes the same sequence as walking all of them, over three wheel cycles
// of the loads the snapshot properties draw.
func TestRouteMatchesAllSitesWalk(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lambdas := randomLoads(r)
		tbl, err := NewTable(lambdas)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		w := tbl.Weights()
		oracle := &allSitesTable{weights: w, credit: make([]float64, len(w))}
		for k := 0; k < 3*patternLen(len(w)); k++ {
			if got, want := tbl.Route(), oracle.route(); got != want {
				t.Logf("seed %d: request %d routed to site %d, all-sites walk says %d", seed, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	tbl, _ := NewTable([]float64{5, 10, 15})
	sum := 0.0
	for _, w := range tbl.Weights() {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum %v", sum)
	}
}

func TestGatePremiumAlwaysPasses(t *testing.T) {
	g, err := NewGate(0, 100) // ordinary fully blocked
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !g.Admit(Premium) {
			t.Fatal("premium request blocked")
		}
		if g.Admit(Ordinary) {
			t.Fatal("ordinary request admitted at rate 0")
		}
	}
}

func TestGatePacing(t *testing.T) {
	g, err := NewGate(30, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.OrdinaryRate()-0.3) > 1e-12 {
		t.Fatalf("rate %v", g.OrdinaryRate())
	}
	admitted := 0
	for i := 0; i < 1000; i++ {
		if g.Admit(Ordinary) {
			admitted++
		}
	}
	if admitted < 299 || admitted > 301 {
		t.Errorf("admitted %d of 1000 at rate 0.3", admitted)
	}
}

func TestGateEdgeCases(t *testing.T) {
	if _, err := NewGate(-1, 10); err == nil {
		t.Error("negative served accepted")
	}
	// No ordinary arrivals → rate defaults to 1.
	g, err := NewGate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.OrdinaryRate() != 1 || !g.Admit(Ordinary) {
		t.Error("empty-hour gate should pass everything")
	}
	// Served above arrived clamps to 1.
	g2, _ := NewGate(20, 10)
	if g2.OrdinaryRate() != 1 {
		t.Errorf("rate %v, want clamp to 1", g2.OrdinaryRate())
	}
}
