package budget

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"billcap/internal/timeseries"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func uniformPred(hours int) timeseries.Series {
	p := make(timeseries.Series, hours)
	for i := range p {
		p[i] = 1
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, uniformPred(10)); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := New(100, nil); err == nil {
		t.Error("empty prediction accepted")
	}
	if _, err := New(100, timeseries.Series{1, -2}); err == nil {
		t.Error("negative prediction accepted")
	}
}

// TestNewRejectsNonFinite: New refuses what Restore refuses. A NaN or
// infinite monthly budget or prediction used to build a budgeter whose
// snapshot no Restore accepts (and JSON cannot even encode NaN), so a run
// with a state directory wrote checkpoints it could never restore.
func TestNewRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		monthly float64
		pred    timeseries.Series
	}{
		{"NaN budget", nan, uniformPred(10)},
		{"+Inf budget", inf, uniformPred(10)},
		{"-Inf budget", -inf, uniformPred(10)},
		{"NaN prediction", 100, timeseries.Series{1, nan, 1}},
		{"+Inf prediction", 100, timeseries.Series{1, inf, 1}},
		{"-Inf prediction", 100, timeseries.Series{1, -inf, 1}},
	} {
		if _, err := New(c.monthly, c.pred); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestSharesSumToMonthly(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hours := 24 + r.Intn(720)
		pred := make(timeseries.Series, hours)
		for i := range pred {
			pred[i] = r.Float64() * 1e6
		}
		monthly := 1e5 + r.Float64()*1e7
		b, err := New(monthly, pred)
		if err != nil {
			return false
		}
		sum := 0.0
		for h := 0; h < hours; h++ {
			sum += b.Share(h)
		}
		return near(sum, monthly, 1e-6*monthly)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroPredictionUniform(t *testing.T) {
	b, err := New(240, make(timeseries.Series, 24))
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 24; h++ {
		if !near(b.Share(h), 10, 1e-12) {
			t.Fatalf("share(%d) = %v, want 10", h, b.Share(h))
		}
	}
}

func TestSharesProportionalToPrediction(t *testing.T) {
	b, err := New(300, timeseries.Series{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 100, 150}
	for h, w := range want {
		if !near(b.Share(h), w, 1e-9) {
			t.Errorf("share(%d) = %v, want %v", h, b.Share(h), w)
		}
	}
	if b.Share(-1) != 0 || b.Share(3) != 0 {
		t.Errorf("out-of-range share not zero")
	}
}

func TestCarryoverGrowsWhenUnderspending(t *testing.T) {
	// Spend nothing: available budget must grow hour over hour within a week
	// (the effect visible in the paper's Fig. 6).
	b, err := New(1680, uniformPred(336)) // 10 per hour, 2 weeks
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for h := 0; h < 167; h++ {
		avail := b.HourlyBudget()
		if avail <= prev {
			t.Fatalf("hour %d: available %v did not grow from %v", h, avail, prev)
		}
		prev = avail
		if err := b.Record(0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCarryoverResetsAtWeekBoundary(t *testing.T) {
	b, err := New(3360, uniformPred(336)) // 10 per hour
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < HoursPerWeek; h++ {
		if err := b.Record(0); err != nil {
			t.Fatal(err)
		}
	}
	// First hour of week 2: pool reset, only the base share is available.
	if got := b.HourlyBudget(); !near(got, 10, 1e-9) {
		t.Errorf("hour 168 available = %v, want base share 10", got)
	}
}

func TestDeficitCarriesWithinWeek(t *testing.T) {
	b, err := New(100, uniformPred(10)) // 10 per hour
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Record(25); err != nil { // overspend by 15
		t.Fatal(err)
	}
	// Next hour: 10 − 15 < 0 → clamped to 0.
	if got := b.HourlyBudget(); got != 0 {
		t.Errorf("post-overrun available = %v, want 0", got)
	}
	if err := b.Record(0); err != nil {
		t.Fatal(err)
	}
	// Deficit shrinks as shares accrue: pool = -15 + 10 = -5, so hour 2 has 5.
	if got := b.HourlyBudget(); !near(got, 5, 1e-9) {
		t.Errorf("hour 2 available = %v, want 5", got)
	}
}

func TestAccounting(t *testing.T) {
	b, err := New(100, uniformPred(4))
	if err != nil {
		t.Fatal(err)
	}
	if b.Horizon() != 4 || b.Monthly() != 100 {
		t.Errorf("horizon/monthly = %d/%v", b.Horizon(), b.Monthly())
	}
	spends := []float64{20, 30, 10, 50}
	for _, s := range spends {
		if err := b.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	if b.Spent() != 110 || !near(b.Remaining(), -10, 1e-12) {
		t.Errorf("spent/remaining = %v/%v", b.Spent(), b.Remaining())
	}
	if !near(b.Utilization(), 1.1, 1e-12) {
		t.Errorf("utilization = %v", b.Utilization())
	}
	if err := b.Record(1); err == nil {
		t.Error("recording past the horizon accepted")
	}
	if b.Hour() != 4 {
		t.Errorf("hour = %d", b.Hour())
	}
}

func TestRecordNegativeSpend(t *testing.T) {
	b, _ := New(10, uniformPred(2))
	if err := b.Record(-1); err == nil {
		t.Error("negative spend accepted")
	}
}

func TestZeroBudgetUtilization(t *testing.T) {
	b, _ := New(0, uniformPred(2))
	if b.Utilization() != 0 {
		t.Errorf("zero-budget utilization = %v", b.Utilization())
	}
	if b.HourlyBudget() != 0 {
		t.Errorf("zero-budget hourly = %v", b.HourlyBudget())
	}
}

func TestConservationProperty(t *testing.T) {
	// Whatever the spending pattern, total shares handed out equal the
	// monthly budget, and Spent() equals the sum of recorded spends.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hours := 10 + r.Intn(300)
		pred := make(timeseries.Series, hours)
		for i := range pred {
			pred[i] = r.Float64()
		}
		monthly := 1000.0
		b, err := New(monthly, pred)
		if err != nil {
			return false
		}
		total := 0.0
		for h := 0; h < hours; h++ {
			avail := b.HourlyBudget()
			if avail < 0 {
				return false
			}
			spend := avail * r.Float64()
			total += spend
			if err := b.Record(spend); err != nil {
				return false
			}
		}
		// Spending at most the available budget every hour can never exceed
		// the monthly total (weekly resets only forfeit budget, never add).
		return near(b.Spent(), total, 1e-9*(1+total)) && b.Spent() <= monthly+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestHourlyBudgetZeroAfterExhaustion(t *testing.T) {
	// Underspend every hour so the carryover pool is positive, then exhaust
	// the period: with no next hour to fund, HourlyBudget must report 0, not
	// the leftover pool.
	b, _ := New(10, uniformPred(2))
	if err := b.Record(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Record(1); err != nil {
		t.Fatal(err)
	}
	if b.Pool() <= 0 {
		t.Fatalf("test needs a positive pool, got %v", b.Pool())
	}
	if got := b.HourlyBudget(); got != 0 {
		t.Errorf("HourlyBudget after exhaustion = %v, want 0", got)
	}
}

func TestRestoredDeficitCarriesWithinWeek(t *testing.T) {
	// A crash must not forgive a mid-week overrun: the restored budgeter owes
	// the same deficit to the rest of the week as one that never crashed.
	live, _ := New(1000, uniformPred(HoursPerWeek*2))
	twin, _ := New(1000, uniformPred(HoursPerWeek*2))
	spends := []float64{0, 30, 0, 9} // hour 1 overruns its ~2.98 share hard
	for _, s := range spends {
		if err := live.Record(s); err != nil {
			t.Fatal(err)
		}
		if err := twin.Record(s); err != nil {
			t.Fatal(err)
		}
	}
	if live.Pool() >= 0 {
		t.Fatalf("test needs a deficit pool, got %v", live.Pool())
	}

	restored, err := Restore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Pool(), twin.Pool(); got != want {
		t.Errorf("restored pool %v, want %v", got, want)
	}
	if got, want := restored.HourlyBudget(), twin.HourlyBudget(); got != want {
		t.Errorf("restored HourlyBudget %v, want %v", got, want)
	}
	// The deficit keeps suppressing hourly budgets until the shares pay it
	// off, exactly as on the uncrashed twin.
	for h := len(spends); h < HoursPerWeek; h++ {
		if restored.HourlyBudget() != twin.HourlyBudget() {
			t.Fatalf("hour %d: restored budget %v, twin %v", h, restored.HourlyBudget(), twin.HourlyBudget())
		}
		if err := restored.Record(0); err != nil {
			t.Fatal(err)
		}
		if err := twin.Record(0); err != nil {
			t.Fatal(err)
		}
	}
	// Week boundary: both reset the pool.
	if restored.Pool() != 0 || twin.Pool() != 0 {
		t.Errorf("pools after week boundary: restored %v, twin %v, want 0", restored.Pool(), twin.Pool())
	}
}

func TestRestoredExhaustedPeriodStaysExhausted(t *testing.T) {
	// The round-trip extension of TestHourlyBudgetZeroAfterExhaustion: an
	// exhausted ledger must come back exhausted — no budget for a phantom
	// next hour, and Record still refuses.
	b, _ := New(10, uniformPred(2))
	if err := b.Record(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Record(1); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.HourlyBudget(); got != 0 {
		t.Errorf("restored HourlyBudget after exhaustion = %v, want 0", got)
	}
	if err := restored.Record(1); err == nil {
		t.Error("restored exhausted budgeter accepted another hour")
	}
	if got, want := restored.Spent(), b.Spent(); got != want {
		t.Errorf("restored spent %v, want %v", got, want)
	}
}

func TestRestoreValidation(t *testing.T) {
	good := func() State {
		b, _ := New(100, uniformPred(4))
		b.Record(10)
		return b.Snapshot()
	}
	cases := map[string]func(*State){
		"NaN monthly":     func(st *State) { st.MonthlyUSD = math.NaN() },
		"negative spend":  func(st *State) { st.SpentUSD = -1 },
		"empty shares":    func(st *State) { st.SharesUSD = nil },
		"cursor past end": func(st *State) { st.NextHour = len(st.SharesUSD) + 1 },
		"negative cursor": func(st *State) { st.NextHour = -1 },
		"Inf pool":        func(st *State) { st.PoolUSD = math.Inf(1) },
		"NaN share":       func(st *State) { st.SharesUSD[2] = math.NaN() },
	}
	for name, corrupt := range cases {
		st := good()
		corrupt(&st)
		if _, err := Restore(st); err == nil {
			t.Errorf("%s: corrupt ledger accepted", name)
		}
	}
}

// TestCrashReplayIndistinguishable is the property the WAL layer builds on:
// snapshot at any point of any spend sequence, restore, replay the remaining
// spends — the final ledger must be byte-identical (JSON of State) to one
// that never crashed.
func TestCrashReplayIndistinguishable(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hours := 1 + r.Intn(3*HoursPerWeek)
		pred := make(timeseries.Series, hours)
		for i := range pred {
			pred[i] = r.Float64() * 10
		}
		monthly := r.Float64() * 1e6
		spends := make([]float64, hours)
		for i := range spends {
			spends[i] = r.Float64() * monthly / float64(hours) * 2
		}
		crashAt := r.Intn(hours + 1)

		uncrashed, err := New(monthly, pred)
		if err != nil {
			t.Fatal(err)
		}
		crashed, err := New(monthly, pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spends {
			if err := uncrashed.Record(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range spends[:crashAt] {
			if err := crashed.Record(s); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := json.Marshal(crashed.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var st State
		if err := json.Unmarshal(snap, &st); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spends[crashAt:] {
			if err := restored.Record(s); err != nil {
				t.Fatal(err)
			}
		}
		a, err := json.Marshal(uncrashed.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(restored.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Logf("seed %d crashAt %d:\nuncrashed %s\nrestored  %s", seed, crashAt, a, b)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values:   func(vs []reflect.Value, _ *rand.Rand) { vs[0] = reflect.ValueOf(rng.Int63()) },
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
