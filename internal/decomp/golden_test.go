package decomp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"billcap/internal/milp"
)

// answerDigest hashes the float bits of everything a Solve answers: status,
// objective, dual bound, gap, iteration count and every site's segment and
// load. Effort counters and wall time are left out.
func answerDigest(res Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(res.Status))
	put(math.Float64bits(res.Objective))
	put(math.Float64bits(res.DualBound))
	put(math.Float64bits(res.Gap))
	put(uint64(res.Iterations))
	for _, a := range res.Sites {
		put(uint64(int64(a.Seg)))
		put(math.Float64bits(a.Load))
	}
	return h.Sum64()
}

// minCostFleet is TestMinCostServesExactly's shape at fleet scale: sites
// with rising-rate segments from zero load, most of which may switch off,
// and a target the fleet must serve exactly.
func minCostFleet(n int) Instance {
	inst := Instance{Sense: MinCostServeAll, BudgetUSD: math.Inf(1), Sites: make([]Site, n)}
	capacity := 0.0
	for i := range inst.Sites {
		s := Site{Name: fmt.Sprintf("s%d", i), CanOff: i%4 != 0}
		lo := 0.0
		for k := 0; k < 3; k++ {
			hi := lo + 50 + float64((7*i+13*k)%40)
			rate := 2 + float64((5*i+3*k)%9) + float64(k)
			s.Segments = append(s.Segments, Segment{Seg: k, LoadLo: lo, LoadHi: hi, Cost1: rate, Power1: 1, Rate: rate})
			lo = hi
		}
		capacity += lo
		inst.Sites[i] = s
	}
	inst.TargetLoad = math.Round(0.55 * capacity)
	return inst
}

// withCutoff sets a min-cost instance's cutoff.
func withCutoff(inst Instance, budget float64) Instance {
	inst.BudgetUSD = budget
	return inst
}

// TestSolveGolden pins Solve's answers bit for bit on both senses: seeded
// paper fleets (max load within budget) and min-cost serve-all instances.
// The digests were recorded before the polish memo existed, so they prove
// the memo changes no answer. Polishes counts only the LPs actually solved:
// without the memo the N=50 seed-0 fleet re-polished the same segment
// choices into 161 LPs (7,831 pivots).
func TestSolveGolden(t *testing.T) {
	cases := []struct {
		name     string
		inst     Instance
		digest   uint64
		polishes int // -1: not pinned
		pivots   int // -1: not pinned
	}{
		{"fleet-50-seed0", FromFleet(milp.NewPaperFleet(50, 0)), 0x333a6e97c1dc2134, 10, 395},
		{"fleet-50-seed1", FromFleet(milp.NewPaperFleet(50, 1)), 0xd4454bdc182180e2, -1, -1},
		{"fleet-200-seed0", FromFleet(milp.NewPaperFleet(200, 0)), 0x3029112ecffcaf36, 5, -1},
		{"fleet-200-seed1", FromFleet(milp.NewPaperFleet(200, 1)), 0xedb9ff6b2a9a1144, -1, -1},
		{"mincost-two-sites", Instance{Sites: twoSites(), Sense: MinCostServeAll, TargetLoad: 220, BudgetUSD: math.Inf(1)}, 0xdc5f610c5df86ab9, -1, -1},
		{"mincost-40", minCostFleet(40), 0x3782bdda2b2fb633, -1, -1},
		// The uncut solve ends at cost 18529 with its dual bound at 18381. A
		// cutoff of 18000 stops the loop after its first iteration (bound
		// 18269, over-budget, holding the bootstrap primal at 24037), and
		// one over the primal leaves the solve as it was.
		{"mincost-40/cutoff-under-dual-bound", withCutoff(minCostFleet(40), 18000), 0x85af02b46aee365a, 1, 41},
		{"mincost-40/cutoff-over-primal", withCutoff(minCostFleet(40), 19000), 0x3782bdda2b2fb633, -1, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Solve(c.inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("status %v objective %v dual %v gap %v iterations %d polishes %d pivots %d",
				res.Status, res.Objective, res.DualBound, res.Gap, res.Iterations, res.Polishes, res.LPPivots)
			if got := answerDigest(res); got != c.digest {
				t.Errorf("answer digest %#x, want %#x", got, c.digest)
			}
			if c.polishes >= 0 && res.Polishes != c.polishes {
				t.Errorf("polishes %d, want %d", res.Polishes, c.polishes)
			}
			if c.pivots >= 0 && res.LPPivots != c.pivots {
				t.Errorf("LP pivots %d, want %d", res.LPPivots, c.pivots)
			}
		})
	}
}

// TestPolishMemoKeysEverySite: the polish memo keys on every site's segment
// choice, off sites included, so two plans that run the same segment on
// different sites are polished apart, while a repeat of a plan — whatever
// its loads — is answered from the memo without solving another LP.
func TestPolishMemoKeysEverySite(t *testing.T) {
	inst := Instance{Sites: twoSites(), Sense: MaxLoadWithinBudget, TargetLoad: math.Inf(1), BudgetUSD: 240}
	r := &recoverer{inst: &inst}
	a, aok := r.polish([]sel{{seg: 0, load: 10}, {seg: -1}})
	b, bok := r.polish([]sel{{seg: -1}, {seg: 0, load: 10}})
	if !aok || !bok {
		t.Fatalf("polish failed: %v %v", aok, bok)
	}
	// $240 buys 100 units on site a (capped by its segment) or 80 on b.
	if a.load != 100 || a.sel[0] != (sel{seg: 0, load: 100}) {
		t.Errorf("site a alone polished to %+v (load %v)", a.sel, a.load)
	}
	if b.load != 80 || b.sel[0].seg != -1 || b.sel[1] != (sel{seg: 0, load: 80}) {
		t.Errorf("site b alone polished to %+v (load %v)", b.sel, b.load)
	}
	if r.polishes != 2 {
		t.Fatalf("%d polish LPs for two distinct plans", r.polishes)
	}
	pivots := r.pivots
	again, ok := r.polish([]sel{{seg: 0, load: 55}, {seg: -1, load: 7}})
	if !ok || again.load != a.load || again.sel[0] != a.sel[0] {
		t.Errorf("repeat of site a's plan polished to %+v (load %v)", again.sel, again.load)
	}
	if r.polishes != 2 || r.pivots != pivots {
		t.Errorf("repeat plan solved again: %d polishes, %d pivots (want 2, %d)", r.polishes, r.pivots, pivots)
	}
}
