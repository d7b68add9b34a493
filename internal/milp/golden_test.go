package milp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"billcap/internal/lp"
)

// xDigest hashes the float bits of an answer's X.
func xDigest(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// searchGolden is what TestSearchGolden pins of one solve: the answer's bits
// and the search's effort counters.
type searchGolden struct {
	status     Status
	objBits    uint64
	x          uint64
	nodes      int
	pivots     int
	refactors  int
	updates    int
	incumbents int
}

func goldenOf(s Solution) searchGolden {
	return searchGolden{
		status:     s.Status,
		objBits:    math.Float64bits(s.Objective),
		x:          xDigest(s.X),
		nodes:      s.Nodes,
		pivots:     s.Pivots,
		refactors:  s.LPRefactorizations,
		updates:    s.LPBasisUpdates,
		incumbents: s.Incumbents,
	}
}

// TestSearchGolden pins branch and bound bit for bit: the objective's bits,
// a digest of X and every effort counter, on the paper-hour family at 5 and
// 13 sites (cold, and crashed from the previous hour's root basis) and on
// the hard knapsack under a node cap. A change that moves a single pivot of
// the root solve or of any node re-solve moves a pivot or an update count
// here, at the solver, before it reaches the daemon digests.
//
// NewPaperHour maximizes, so a cutoff is worse than an answer when it lies
// above it. Hour 2 at 13 sites has its root LP bound at 4372.17 and its
// optimum at 4352.44: a cutoff of 4400 stops the solve after the root,
// and one of 4300 leaves the search as it was.
func TestSearchGolden(t *testing.T) {
	hourWith := func(sites int, warm bool, opt Options) Solution {
		if warm {
			opt.StartBasis = NewPaperHour(sites, PaperHourBudget(sites, 1)).Solve().RootBasis
		}
		return NewPaperHour(sites, PaperHourBudget(sites, 2)).SolveWithOptions(opt)
	}
	hour := func(sites int, warm bool) Solution { return hourWith(sites, warm, Options{}) }
	cases := []struct {
		name  string
		solve func() Solution
		want  searchGolden
	}{
		{"paper-hour-5/cold", func() Solution { return hour(5, false) },
			searchGolden{Optimal, 0x409a281111111110, 0xd741413a7afc07d2, 31, 286, 1, 281, 1}},
		{"paper-hour-5/warm", func() Solution { return hour(5, true) },
			searchGolden{Optimal, 0x409a281111111111, 0x52c10f335207b99d, 27, 181, 0, 181, 1}},
		{"paper-hour-13/cold", func() Solution { return hour(13, false) },
			searchGolden{Optimal, 0x40b100717e4b17e4, 0x457096d39b791f1d, 227, 3266, 3, 3253, 1}},
		{"paper-hour-13/warm", func() Solution { return hour(13, true) },
			searchGolden{Optimal, 0x40b100717e4b17e5, 0x90755937f34dc9ec, 227, 3129, 0, 3129, 1}},
		{"paper-hour-13/cold/cutoff-over-root-bound", func() Solution { return hourWith(13, false, Options{Cutoff: 4400}) },
			searchGolden{Cutoff, 0, 0xcbf29ce484222325, 1, 216, 3, 203, 0}},
		{"paper-hour-13/cold/cutoff-under-optimum", func() Solution { return hourWith(13, false, Options{Cutoff: 4300}) },
			searchGolden{Optimal, 0x40b100717e4b17e4, 0x457096d39b791f1d, 227, 3266, 3, 3253, 1}},
		{"knapsack-20/max-nodes-1000", func() Solution { return NewHardKnapsack(20, 0).SolveWithOptions(Options{MaxNodes: 1000}) },
			searchGolden{Limit, 0x408aa00000000000, 0xa98a64a110b943f8, 1001, 1926, 0, 1916, 12}},
	}
	for _, c := range cases {
		if got := goldenOf(c.solve()); got != c.want {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
	// A cut solve hands on the root basis the uncut one does, cold or
	// crashed, so the next hour starts from the same place.
	for _, warm := range []bool{false, true} {
		cut, full := hourWith(13, warm, Options{Cutoff: 4400}), hour(13, warm)
		if !reflect.DeepEqual(cut.RootBasis, full.RootBasis) || cut.RootWarm != full.RootWarm || reflect.DeepEqual(cut.RootBasis, lp.Basis{}) {
			t.Errorf("warm %v: cut solve's root basis (warm %v) differs from the uncut solve's (warm %v)", warm, cut.RootWarm, full.RootWarm)
		}
		if !math.IsInf(cut.Gap, 1) {
			t.Errorf("warm %v: cut solve reports gap %v, want +Inf", warm, cut.Gap)
		}
	}
}
