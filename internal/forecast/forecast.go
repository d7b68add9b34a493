// Package forecast predicts hourly workload from history. The paper's
// budgeter keeps "a history of the request arrival rate seen during each
// hour of the week over the past several weeks" (two weeks suffice for the
// Wikipedia trace, §VI-B) and uses the per-hour-of-week means as weights for
// splitting the monthly budget. A deterministic error-injection wrapper
// supports the robustness experiments the paper defers to future work (§IX).
package forecast

import (
	"fmt"
	"math"
	"math/rand"

	"billcap/internal/timeseries"
)

// HoursPerWeek is the weekly bucket count.
const HoursPerWeek = 168

// HourOfWeek predicts by the historical mean of the same hour of the week.
type HourOfWeek struct {
	means [HoursPerWeek]float64
}

// FitHourOfWeek folds the history (hour 0 = Monday 00:00) into hour-of-week
// means. History shorter than one week leaves untouched buckets at the
// overall mean so predictions stay positive.
func FitHourOfWeek(history timeseries.Series) (*HourOfWeek, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("forecast: empty history")
	}
	f := &HourOfWeek{means: history.HourOfWeekMeans()}
	overall := history.Mean()
	for b := range f.means {
		if f.means[b] == 0 {
			f.means[b] = overall
		}
	}
	return f, nil
}

// Predict returns the expected value for absolute hour h (same epoch as the
// history: hour 0 = Monday 00:00). Negative hours index backwards from that
// epoch, so h = −1 is Sunday 23:00 of the previous week.
func (f *HourOfWeek) Predict(h int) float64 {
	return f.means[((h%HoursPerWeek)+HoursPerWeek)%HoursPerWeek]
}

// PredictSeries materializes predictions for hours [0, n).
func (f *HourOfWeek) PredictSeries(n int) timeseries.Series {
	out := make(timeseries.Series, n)
	for h := range out {
		out[h] = f.Predict(h)
	}
	return out
}

// WithError returns a copy of the predictions with deterministic mean-one
// lognormal error of the given relative magnitude applied, for studying how
// the budgeter degrades when forecasts are wrong (paper §IX).
func WithError(pred timeseries.Series, relErr float64, seed int64) timeseries.Series {
	if relErr <= 0 {
		return pred.Clone()
	}
	rng := rand.New(rand.NewSource(seed))
	out := pred.Clone()
	sigma := relErr
	for i := range out {
		out[i] *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
	}
	return out
}

// MAPE returns the mean absolute percentage error of predictions against
// actuals (aligned by index), ignoring hours with zero actuals.
func MAPE(pred, actual timeseries.Series) float64 {
	n := len(pred)
	if len(actual) < n {
		n = len(actual)
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-actual[i]) / actual[i]
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
