package forecast

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DriftDetector is the data plane's intra-hour tripwire: it compares the
// arrivals a routing tier actually observes against the prediction the
// current allocation was solved for, and trips once the observation exceeds
// Ratio times the prediction. The capper solves once per hour from an
// hour-of-week forecast; when real traffic runs well past that
// forecast mid-hour, the hourly plan is stale and an asynchronous re-solve
// is warranted — the detector is the cheap, lock-free test on the request
// path that says so.
//
// All methods are safe for concurrent use; Exceeded is two atomic loads and
// a multiply, cheap enough to call per request.
type DriftDetector struct {
	ratio     float64
	predicted atomic.Uint64 // float64 bits; 0 (disarmed) until Arm
}

// NewDriftDetector builds a detector that trips when observed arrivals
// exceed ratio × predicted. The ratio must be finite and > 1: a ratio ≤ 1
// would re-solve on the forecast being merely met.
func NewDriftDetector(ratio float64) (*DriftDetector, error) {
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio <= 1 {
		return nil, fmt.Errorf("forecast: drift ratio %v, want a finite ratio > 1", ratio)
	}
	return &DriftDetector{ratio: ratio}, nil
}

// Ratio returns the configured trip ratio.
func (d *DriftDetector) Ratio() float64 { return d.ratio }

// Arm sets the prediction the next observations are judged against —
// typically the TotalLambda the installed allocation was solved for. A
// non-finite or non-positive prediction disarms the detector (there is
// nothing meaningful to compare against, and a disarmed detector never
// trips), so a shed hour cannot wedge the plane into a re-solve loop.
func (d *DriftDetector) Arm(predicted float64) {
	if math.IsNaN(predicted) || math.IsInf(predicted, 0) || predicted <= 0 {
		predicted = 0
	}
	d.predicted.Store(math.Float64bits(predicted))
}

// Predicted returns the armed prediction (0 when disarmed).
func (d *DriftDetector) Predicted() float64 {
	return math.Float64frombits(d.predicted.Load())
}

// Exceeded reports whether the observed arrival count has drifted beyond
// ratio × the armed prediction. Always false while disarmed.
func (d *DriftDetector) Exceeded(observed float64) bool {
	p := d.Predicted()
	return p > 0 && observed > d.ratio*p
}
