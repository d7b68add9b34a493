package forecast

import (
	"math"
	"testing"

	"billcap/internal/timeseries"
	"billcap/internal/workload"
)

func TestFitHourOfWeekEmpty(t *testing.T) {
	if _, err := FitHourOfWeek(nil); err == nil {
		t.Error("empty history accepted")
	}
}

func TestFitHourOfWeekShortHistoryFallsBack(t *testing.T) {
	// 24 hours of history: buckets 24..167 must fall back to the mean.
	hist := make(timeseries.Series, 24)
	for i := range hist {
		hist[i] = float64(i + 1)
	}
	f, err := FitHourOfWeek(hist)
	if err != nil {
		t.Fatal(err)
	}
	mean := hist.Mean()
	if got := f.Predict(30); got != mean {
		t.Errorf("untouched bucket = %v, want overall mean %v", got, mean)
	}
	if got := f.Predict(5); got != 6 {
		t.Errorf("bucket 5 = %v, want 6", got)
	}
}

func TestHourOfWeekPredictsWikipediaShape(t *testing.T) {
	// Fit on "October", predict "November": the weekly pattern must carry
	// over with a small MAPE (the paper found two weeks of history enough).
	cfg := workload.DefaultWikipedia()
	tr, err := workload.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	october := tr.Slice(0, 4*168)
	november := tr.Slice(4*168, 8*168)
	f, err := FitHourOfWeek(october.Rates[2*168:]) // last two weeks
	if err != nil {
		t.Fatal(err)
	}
	pred := f.PredictSeries(november.Len())
	if m := MAPE(pred, november.Rates); m > 0.12 {
		t.Errorf("MAPE = %v, want ≤ 0.12 for a structured trace", m)
	}
}

func TestPredictNegativeHour(t *testing.T) {
	// Negative hours count backwards from the epoch: h = −1 is Sunday 23:00
	// (bucket 167), not Monday 01:00 (bucket 1), which the old `h = -h`
	// mirroring produced.
	hist := make(timeseries.Series, 168)
	for i := range hist {
		hist[i] = float64(i)
	}
	f, _ := FitHourOfWeek(hist)
	cases := []struct{ h, bucket int }{
		{-1, 167}, {-3, 165}, {-168, 0}, {-169, 167}, {-336, 0},
		{0, 0}, {167, 167}, {168, 0},
	}
	for _, c := range cases {
		if got, want := f.Predict(c.h), f.Predict(c.bucket); got != want {
			t.Errorf("Predict(%d) = %v, want bucket %d = %v", c.h, got, c.bucket, want)
		}
	}
}

func TestWithError(t *testing.T) {
	pred := timeseries.Series{100, 100, 100, 100}
	same := WithError(pred, 0, 1)
	for i := range pred {
		if same[i] != pred[i] {
			t.Errorf("zero error changed predictions")
		}
	}
	noisy := WithError(pred, 0.3, 1)
	diff := false
	for i := range pred {
		if noisy[i] != pred[i] {
			diff = true
		}
		if noisy[i] <= 0 {
			t.Errorf("lognormal error produced nonpositive value %v", noisy[i])
		}
	}
	if !diff {
		t.Errorf("nonzero error changed nothing")
	}
	// Deterministic per seed.
	again := WithError(pred, 0.3, 1)
	for i := range noisy {
		if noisy[i] != again[i] {
			t.Errorf("same seed produced different errors")
		}
	}
}

func TestMAPE(t *testing.T) {
	if m := MAPE(timeseries.Series{110, 90}, timeseries.Series{100, 100}); math.Abs(m-0.1) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.1", m)
	}
	if m := MAPE(timeseries.Series{1, 2}, timeseries.Series{0, 0}); m != 0 {
		t.Errorf("all-zero actuals MAPE = %v, want 0", m)
	}
	if m := MAPE(nil, nil); m != 0 {
		t.Errorf("empty MAPE = %v", m)
	}
}
