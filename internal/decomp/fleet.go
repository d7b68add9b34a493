package decomp

import (
	"fmt"
	"math"

	"billcap/internal/milp"
)

// FromFleet converts a milp.FleetInstance — the paper-hour step-2 family —
// into a decomposition instance over the same feasible set: load is the
// site's purchased power p, cost is rate·p, the per-site spend cap folds
// into each segment's upper load bound, and Σz = 1 means no off state.
// Segments the demand shift or the spend cap make unreachable are dropped
// (the MILP keeps their binaries, which no integer-feasible point can set;
// here they simply never appear). Objectives match too, so the exact MILP
// optimum and the decomposition's primal/dual values are directly
// comparable.
func FromFleet(fi milp.FleetInstance) Instance {
	inst := Instance{
		Sense:      MaxLoadWithinBudget,
		TargetLoad: math.Inf(1),
		BudgetUSD:  fi.BudgetUSD,
		Epsilon:    fi.Epsilon,
		Sites:      make([]Site, len(fi.Sites)),
	}
	for i, fs := range fi.Sites {
		s := Site{Name: fmt.Sprintf("s%d", i)}
		for k, g := range fs.Segs {
			hi := g.HiMW
			if g.RateUSDPerMWh > 0 {
				hi = math.Min(hi, fs.CapUSD/g.RateUSDPerMWh)
			}
			if hi < g.LoMW {
				continue // unreachable under the demand shift or the spend cap
			}
			s.Segments = append(s.Segments, Segment{
				Seg:    k,
				LoadLo: g.LoMW,
				LoadHi: hi,
				Cost1:  g.RateUSDPerMWh,
				Power1: 1, // load here is the purchased power itself
				Rate:   g.RateUSDPerMWh,
			})
		}
		inst.Sites[i] = s
	}
	return inst
}
