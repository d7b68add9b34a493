package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestDecideBatchMatchesSerial pins that hour solves are deterministic: with
// default Options, DecideBatch over a seeded 168-hour week — hours fanned out
// across goroutines — must return exactly the decisions serial DecideHour
// returns, SolverStats node and pivot counts included (wall times excluded).
// Run under -race in CI, it is also the data-race probe for concurrent hours
// on one System.
func TestDecideBatchMatchesSerial(t *testing.T) {
	// At least four hours in flight, even on a one-CPU runner.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	s := paperSystem(t, Options{})
	probe := HourInput{TotalLambda: 1.2e12, PremiumLambda: 6e11, DemandMW: demand3(), BudgetUSD: math.Inf(1)}
	d, err := s.DecideHour(probe)
	if err != nil {
		t.Fatal(err)
	}
	ins := simWeek(5, 3, d.PredictedCostUSD*0.5, d.PredictedCostUSD*10)

	want := make([]Decision, len(ins))
	wantErr := make([]error, len(ins))
	for i, in := range ins {
		want[i], wantErr[i] = s.DecideHour(in)
	}
	got, gotErr := s.DecideBatch(context.Background(), ins)

	var total SolverStats
	for i := range ins {
		if fmt.Sprint(gotErr[i]) != fmt.Sprint(wantErr[i]) {
			t.Fatalf("hour %d: batch err %v, serial err %v", i, gotErr[i], wantErr[i])
		}
		g, w := got[i], want[i]
		g.Solver.WallTime, w.Solver.WallTime = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("hour %d: batch decision differs from serial\nbatch:  %+v\nserial: %+v", i, g, w)
		}
		total.Accumulate(w.Solver)
	}
	// The week must actually branch, or equal node counts prove nothing.
	if total.Nodes <= total.Solves {
		t.Fatalf("%d nodes over %d solves: no hour branched", total.Nodes, total.Solves)
	}
}
