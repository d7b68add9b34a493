package battery

import (
	"math"
	"testing"

	"billcap/internal/piecewise"
	"billcap/internal/pricing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 1, 1, 0.9); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(1, -1, 1, 0.9); err == nil {
		t.Error("negative charge rate accepted")
	}
	if _, err := New(1, 1, 1, 0); err == nil {
		t.Error("zero efficiency accepted")
	}
	if _, err := New(1, 1, 1, 1.5); err == nil {
		t.Error("efficiency > 1 accepted")
	}
}

// TestNewRejectsNonFinite: a NaN or infinite capacity, rate or efficiency
// is no battery. New(40, NaN, NaN, NaN) and New(+Inf, +Inf, +Inf, 0.9)
// used to succeed.
func TestNewRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][4]float64{
		{40, nan, nan, nan},
		{inf, inf, inf, 0.9},
		{nan, 15, 15, 0.9},
		{inf, 15, 15, 0.9},
		{40, nan, 15, 0.9},
		{40, 15, inf, 0.9},
		{40, -inf, 15, 0.9},
		{40, 15, 15, nan},
		{40, 15, 15, inf},
	} {
		if _, err := New(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("New(%v, %v, %v, %v) accepted", c[0], c[1], c[2], c[3])
		}
	}
}

func TestChargeDischargeCycle(t *testing.T) {
	b, err := New(10, 5, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Charge: 5 MW grid limited by rate, stores 4 MWh at 80%.
	got := b.Charge(100)
	if !near(got, 5, 1e-12) || !near(b.SoC(), 4, 1e-12) {
		t.Fatalf("charge drew %v, soc %v", got, b.SoC())
	}
	// Charge until full: room 6 MWh → grid 7.5 MW, but rate caps at 5.
	got = b.Charge(100)
	if !near(got, 5, 1e-12) || !near(b.SoC(), 8, 1e-12) {
		t.Fatalf("second charge drew %v, soc %v", got, b.SoC())
	}
	got = b.Charge(100) // room 2 MWh → grid 2.5 MW
	if !near(got, 2.5, 1e-12) || !near(b.SoC(), 10, 1e-12) {
		t.Fatalf("topping charge drew %v, soc %v", got, b.SoC())
	}
	if b.Charge(100) != 0 {
		t.Error("charged past capacity")
	}
	// Discharge: rate-limited at 4 MW.
	if got := b.Discharge(100); !near(got, 4, 1e-12) {
		t.Errorf("discharge gave %v", got)
	}
	// Drain the rest.
	if got := b.Discharge(100); !near(got, 4, 1e-12) {
		t.Errorf("second discharge gave %v", got)
	}
	if got := b.Discharge(100); !near(got, 2, 1e-12) || b.SoC() != 0 {
		t.Errorf("final discharge gave %v, soc %v", got, b.SoC())
	}
	if b.Discharge(1) != 0 {
		t.Error("discharged an empty battery")
	}
}

func TestChargeDischargeNoOps(t *testing.T) {
	b, _ := New(10, 5, 5, 1)
	if b.Charge(-1) != 0 || b.Charge(0) != 0 {
		t.Error("nonpositive charge did something")
	}
	if b.Discharge(-1) != 0 {
		t.Error("negative discharge did something")
	}
	var zero Battery
	if zero.Charge(5) != 0 {
		t.Error("zero-capacity battery charged")
	}
}

// Regression: `gridMW <= 0` is false for NaN, so before the explicit
// finiteness check math.Min propagated NaN into soc and the battery was
// poisoned for the rest of the run.
func TestChargeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, _ := New(10, 5, 5, 0.9)
		b.Charge(2)
		soc := b.SoC()
		if got := b.Charge(bad); got != 0 {
			t.Errorf("Charge(%v) = %v, want 0", bad, got)
		}
		if b.SoC() != soc || math.IsNaN(b.SoC()) {
			t.Errorf("Charge(%v) corrupted soc: %v", bad, b.SoC())
		}
	}
}

func TestDischargeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, _ := New(10, 5, 5, 0.9)
		b.Charge(2)
		soc := b.SoC()
		if got := b.Discharge(bad); got != 0 {
			t.Errorf("Discharge(%v) = %v, want 0", bad, got)
		}
		if b.SoC() != soc || math.IsNaN(b.SoC()) {
			t.Errorf("Discharge(%v) corrupted soc: %v", bad, b.SoC())
		}
	}
}

func TestSetSoCClamps(t *testing.T) {
	b, _ := New(10, 5, 5, 0.9)
	b.SetSoC(7)
	if b.SoC() != 7 {
		t.Errorf("SetSoC(7) → %v", b.SoC())
	}
	b.SetSoC(25)
	if b.SoC() != 10 {
		t.Errorf("SetSoC above capacity → %v, want clamp to 10", b.SoC())
	}
	b.SetSoC(math.NaN())
	if b.SoC() != 0 {
		t.Errorf("SetSoC(NaN) → %v, want 0", b.SoC())
	}
	b.SetSoC(-3)
	if b.SoC() != 0 {
		t.Errorf("SetSoC(-3) → %v, want 0", b.SoC())
	}
}

// thinPolicy has a price band so narrow that a lossy battery can never
// arbitrage it profitably — and its prices sit at or below $1/MWh, the
// range where the old finite idle sentinel (low=1, high=0) still fired the
// charge branch.
func thinPolicy() pricing.Policy {
	return pricing.Policy{
		Name: "thin", Location: "T",
		Fn: piecewise.MustNew([]float64{100}, []float64{0.90, 1.00}),
	}
}

// Regression: the idle sentinel used to be (low, high) = (1, 0), so any
// price ≤ $1/MWh — realistic once real-time or near-zero prices exist —
// still satisfied `price <= low` and charged at a guaranteed loss.
func TestIdleSentinelDoesNotChargeAtSubDollarPrices(t *testing.T) {
	b, _ := New(50, 20, 20, 0.5) // 50% efficiency: thin spread is a sure loss
	op := NewOperator(b, thinPolicy(), 500)
	// Warm the history past the cold-start branch so the quantile path with
	// its profitability floor is taken: spread 0.90–1.00, high*eff = 0.5 < low.
	for i := 0; i < 48; i++ {
		op.observe(0.90 + 0.10*float64(i%2))
	}
	grid, _ := op.Step(20, 30) // price 0.90 ≤ old sentinel low of 1
	if b.SoC() != 0 {
		t.Fatalf("idle operator charged %v MWh at a sub-dollar price", b.SoC())
	}
	if grid != 20 {
		t.Fatalf("grid = %v, want pass-through 20", grid)
	}
}

// Regression: the cold-start branch (< 24 h of history) derived thresholds
// from the policy band without the round-trip profitability floor, so a thin
// band with low efficiency arbitraged at a guaranteed loss all first day.
func TestColdStartAppliesProfitabilityFloor(t *testing.T) {
	b, _ := New(50, 20, 20, 0.5)
	op := NewOperator(b, thinPolicy(), 500)
	// No history at all: band thresholds would be low=0.925, high=0.975;
	// high*eff = 0.4875 < low, so the operator must idle.
	grid, _ := op.Step(20, 30) // price 0.90 ≤ band low
	if b.SoC() != 0 {
		t.Fatalf("cold-start operator charged %v MWh on an unprofitable band", b.SoC())
	}
	if grid != 20 {
		t.Fatalf("grid = %v, want pass-through 20", grid)
	}
}

func trapPolicy() pricing.Policy {
	return pricing.Policy{
		Name: "test", Location: "T",
		Fn: piecewise.MustNew([]float64{100, 200}, []float64{10, 20, 30}),
	}
}

func TestOperatorChargesWhenCheap(t *testing.T) {
	b, _ := New(50, 20, 20, 0.9)
	op := NewOperator(b, trapPolicy(), 80)
	// demand 40 + it 20 = 60: price 10 = min → charge. Headroom to the
	// 100 MW step is 40, to the cap 60, rate 20 → grid grows by 20.
	grid, price := op.Step(20, 40)
	if !near(grid, 40, 1e-9) {
		t.Errorf("grid = %v, want 40", grid)
	}
	if price != 10 {
		t.Errorf("price = %v, want to stay on the cheap step", price)
	}
	if b.SoC() <= 0 {
		t.Error("nothing stored")
	}
}

func TestOperatorChargeNeverCrossesStep(t *testing.T) {
	b, _ := New(50, 100, 100, 1)
	op := NewOperator(b, trapPolicy(), 500)
	// demand 70 + it 20 = 90: 10 MW below the 100 MW step. Charging must
	// stop at the boundary even though rate/cap/capacity would allow more.
	grid, price := op.Step(20, 70)
	if grid >= 30+1e-6 || price != 10 {
		t.Errorf("grid %v price %v: charging crossed the step", grid, price)
	}
}

func TestOperatorChargeRespectsCap(t *testing.T) {
	b, _ := New(50, 100, 100, 1)
	op := NewOperator(b, trapPolicy(), 25)
	grid, _ := op.Step(20, 40)
	if grid > 25+1e-9 {
		t.Errorf("grid %v exceeded the 25 MW cap", grid)
	}
}

func TestOperatorDischargesWhenDear(t *testing.T) {
	b, _ := New(50, 20, 15, 1)
	b.Charge(20) // 20 MWh stored
	op := NewOperator(b, trapPolicy(), 500)
	// demand 180 + it 30 = 210: price 30 = max → discharge up to 15 MW.
	grid, price := op.Step(30, 180)
	if !near(grid, 15, 1e-9) {
		t.Errorf("grid = %v, want 15", grid)
	}
	// The reduced draw (180+15=195) even drops the region below the 200 MW
	// step — discharging is doubly valuable for a price maker.
	if price != 20 {
		t.Errorf("price = %v, want 20 after the discharge", price)
	}
}

func TestOperatorIdlesMidBand(t *testing.T) {
	b, _ := New(50, 20, 20, 1)
	b.Charge(10)
	op := NewOperator(b, trapPolicy(), 500)
	// demand 120 + it 30 = 150: price 20 sits between the thresholds.
	soc := b.SoC()
	grid, price := op.Step(30, 120)
	if grid != 30 || price != 20 {
		t.Errorf("grid %v price %v, want pass-through", grid, price)
	}
	if b.SoC() != soc {
		t.Errorf("state of charge moved while idling")
	}
}

func TestArbitrageSavesMoneyOverACycle(t *testing.T) {
	// A synthetic day: 12 cheap hours then 12 dear hours at constant IT
	// draw. With the battery the bill must be lower than without.
	b, _ := New(100, 10, 10, 0.85)
	op := NewOperator(b, trapPolicy(), 500)
	it := 30.0
	var withB, without float64
	for h := 0; h < 24; h++ {
		demand := 40.0 // price 10 at 70 MW total
		if h >= 12 {
			demand = 190 // price 30 at 220 MW total
		}
		without += trapPolicy().Price(demand+it) * it
		grid, price := op.Step(it, demand)
		withB += price * grid
	}
	if withB >= without {
		t.Errorf("battery bill %v not below baseline %v", withB, without)
	}
}
