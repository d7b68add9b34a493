package core

import (
	"context"
	"runtime"
	"sync"
)

// DecideBatch solves many independent hours concurrently — the bulk path for
// re-optimizing a horizon (day-ahead sweeps, what-if studies) without
// serializing the hours. Up to GOMAXPROCS hours run at once, each solved on
// its goroutine by DecideHourCtx. Solves are deterministic and each hour
// starts from the bases its own input carries, so decs[i] is exactly what a
// serial DecideHourCtx(ctx, ins[i]) returns, effort counters included.
//
// Results are index-aligned with ins: decs[i] answers ins[i], errs[i] is its
// error (nil on success). The context bounds every solve; its deadline and
// cancellation propagate into branch-and-bound exactly as in DecideHourCtx.
//
// The batch is split into contiguous chunks, one per goroutine, each
// processed in input order.
func (s *System) DecideBatch(ctx context.Context, ins []HourInput) ([]Decision, []error) {
	decs := make([]Decision, len(ins))
	errs := make([]error, len(ins))
	if len(ins) == 0 {
		return decs, errs
	}
	conc := min(runtime.GOMAXPROCS(0), len(ins))
	chunk := (len(ins) + conc - 1) / conc

	var wg sync.WaitGroup
	for lo := 0; lo < len(ins); lo += chunk {
		hi := min(lo+chunk, len(ins))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				decs[i], errs[i] = s.DecideHourCtx(ctx, ins[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return decs, errs
}
