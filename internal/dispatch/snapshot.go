package dispatch

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Snapshot is the data plane's immutable routing view of one capper
// decision: the per-site weights of a Table and the admission rate of a
// Gate, compiled into structures every method can use without taking a
// lock. A control plane builds a fresh Snapshot per decision and swaps it
// whole behind an atomic.Pointer; request-path goroutines only ever read
// it, so routing stays wait-free while hour allocations change underneath.
//
// Table.Route is O(N) per request and mutates shared credit state, which
// would need a mutex at millions of routes per second. Snapshot instead
// precompiles the routing sequence: at build time it runs a Table for one
// full cycle (a power-of-two number of requests, patternLen) and stores the
// resulting site sequence — a Webster wheel. Routing request k is then one
// atomic fetch-add plus one array read, O(1) and goroutine-safe by
// construction:
//
//	site(k) = pattern[k mod len(pattern)]
//
// Within one cycle the wheel inherits the Table's low-discrepancy
// guarantee (every prefix of n requests puts each site within ±1.5 of
// n·weight, and for n ≤ PatternLen the snapshot routes exactly the site
// sequence a fresh NewTable of the same loads would). Compiling the wheel
// costs PatternLen × (sites with positive weight): idle sites are never
// walked. Each full cycle routes exactly the largest-remainder
// apportionment of patternLen requests, so across m wrapped cycles the
// worst per-site deviation grows only as m·|cycleCount − patternLen·w| < m
// — at the default 65536-entry wheel, under 0.002% of the routed volume.
//
// Admission is the same trick on the Gate: an atomic ordinal k admits the
// ordinary request iff ⌊rate·k⌋ > ⌊rate·(k−1)⌋, the deterministic
// largest-remainder pacing of Gate.Admit without its mutable credit.
type Snapshot struct {
	weights      []float64
	ordinaryRate float64
	hour         int
	version      uint64

	pattern  []uint16
	mask     uint64
	perCycle []int64 // exact per-site counts of one full pattern cycle

	cursor   atomic.Uint64 // next routing ordinal
	admits   atomic.Uint64 // ordinary admission ordinal
	arrivals atomic.Uint64 // requests observed (admitted or not), drift's input

	shards []countShard // routed-request tallies, sharded by ordinal
}

// countShard is one stripe of the per-site routed counters. Consecutive
// routing ordinals land on consecutive shards, so concurrent goroutines —
// which by construction hold distinct ordinals — increment distinct cache
// lines instead of contending on one hot counter per site.
type countShard struct {
	counts []atomic.Int64
}

const (
	minPatternLen = 1 << 12
	maxPatternLen = 1 << 16
	// patternFill is the target requests-per-site within one cycle; larger
	// fills shrink the per-cycle apportionment error relative to volume.
	patternFill = 64
	// countShardCount stripes the routed counters (power of two).
	countShardCount = 64
)

// patternLen picks the wheel size for n sites: the smallest power of two
// giving every site ≈patternFill slots per cycle, clamped to
// [minPatternLen, maxPatternLen].
func patternLen(n int) int {
	l := minPatternLen
	for l < n*patternFill && l < maxPatternLen {
		l <<= 1
	}
	return l
}

// NewSnapshot compiles one decision into an immutable routing snapshot:
// lambdas are the decision's per-site loads (at least one positive), the
// gate pair is the decision's served vs arrived ordinary traffic (see
// NewGate), hour is the decision's hour index, and version is the control
// plane's swap counter, carried so routed responses can say which table
// answered.
func NewSnapshot(lambdas []float64, servedOrdinary, arrivedOrdinary float64, hour int, version uint64) (*Snapshot, error) {
	if len(lambdas) > math.MaxUint16 {
		return nil, fmt.Errorf("dispatch: %d sites exceed the %d-site snapshot limit", len(lambdas), math.MaxUint16)
	}
	tbl, err := NewTable(lambdas)
	if err != nil {
		return nil, err
	}
	gate, err := NewGate(servedOrdinary, arrivedOrdinary)
	if err != nil {
		return nil, err
	}
	n := len(lambdas)
	l := patternLen(n)
	s := &Snapshot{
		weights:      tbl.Weights(),
		ordinaryRate: gate.OrdinaryRate(),
		hour:         hour,
		version:      version,
		pattern:      make([]uint16, l),
		mask:         uint64(l - 1),
		perCycle:     make([]int64, n),
		shards:       make([]countShard, countShardCount),
	}
	for k := range s.pattern {
		site := tbl.Route()
		s.pattern[k] = uint16(site)
		s.perCycle[site]++
	}
	// Pad each stripe to a cache line so neighboring shards never share one.
	padded := (n + 7) &^ 7
	for i := range s.shards {
		s.shards[i].counts = make([]atomic.Int64, padded)
	}
	return s, nil
}

// Route assigns the next request and returns its site index. Wait-free: one
// fetch-add, one array read, one striped counter increment.
func (s *Snapshot) Route() int {
	k := s.cursor.Add(1) - 1
	site := int(s.pattern[k&s.mask])
	s.shards[k&(countShardCount-1)].counts[site].Add(1)
	return site
}

// RouteBatch assigns n requests with a single fetch-add and returns the
// per-site counts. Full wheel cycles are counted in closed form; only the
// partial cycle (min(n, PatternLen) entries) is walked.
func (s *Snapshot) RouteBatch(n int) []int64 {
	counts := make([]int64, len(s.weights))
	if n <= 0 {
		return counts
	}
	un := uint64(n)
	k0 := s.cursor.Add(un) - un
	l := uint64(len(s.pattern))
	if m := un / l; m > 0 {
		for i := range counts {
			counts[i] += int64(m) * s.perCycle[i]
		}
		un -= m * l
	}
	for j := uint64(0); j < un; j++ {
		counts[s.pattern[(k0+j)&s.mask]]++
	}
	shard := &s.shards[k0&(countShardCount-1)]
	for i, c := range counts {
		if c != 0 {
			shard.counts[i].Add(c)
		}
	}
	return counts
}

// RouteN assigns n requests one by one and returns the per-site counts —
// the Table-compatible form used by equivalence tests.
func (s *Snapshot) RouteN(n int) []int {
	counts := make([]int, len(s.weights))
	for k := 0; k < n; k++ {
		counts[s.Route()]++
	}
	return counts
}

// Admit decides one request. Premium always passes; ordinary requests are
// paced at the snapshot's admission rate by ordinal arithmetic — the
// largest-remainder spacing of Gate.Admit without its mutable credit.
func (s *Snapshot) Admit(c Class) bool {
	if c == Premium {
		return true
	}
	k := s.admits.Add(1)
	r := s.ordinaryRate
	return math.Floor(r*float64(k)) > math.Floor(r*float64(k-1))
}

// AdmitBatch decides n ordinary requests with a single fetch-add and
// returns how many were admitted (premium requests need no gate).
func (s *Snapshot) AdmitBatch(n int) int {
	if n <= 0 {
		return 0
	}
	k := s.admits.Add(uint64(n))
	r := s.ordinaryRate
	return int(math.Floor(r*float64(k)) - math.Floor(r*float64(k-uint64(n))))
}

// NoteArrivals records n observed requests (whatever their admission fate)
// and returns the snapshot's running arrival total — the drift detector's
// observed-per-hour input, reset naturally by every table swap.
func (s *Snapshot) NoteArrivals(n int) uint64 {
	return s.arrivals.Add(uint64(n))
}

// Arrivals returns the requests observed since this snapshot was installed.
func (s *Snapshot) Arrivals() uint64 { return s.arrivals.Load() }

// Routed returns the number of requests routed through this snapshot.
func (s *Snapshot) Routed() uint64 { return s.cursor.Load() }

// SiteCounts sums the striped per-site routed counters. Concurrent callers
// see a consistent lower bound (a route increments its stripe just after
// taking its ordinal); once routers quiesce the counts sum to Routed.
func (s *Snapshot) SiteCounts() []int64 {
	out := make([]int64, len(s.weights))
	for i := range s.shards {
		for j := range out {
			out[j] += s.shards[i].counts[j].Load()
		}
	}
	return out
}

// DroppedOrdinary returns how many ordinary requests the pacing gate has
// rejected so far.
func (s *Snapshot) DroppedOrdinary() int64 {
	k := s.admits.Load()
	return int64(k) - int64(math.Floor(s.ordinaryRate*float64(k)))
}

// Weights returns the routing fractions (summing to 1).
func (s *Snapshot) Weights() []float64 { return append([]float64(nil), s.weights...) }

// OrdinaryRate returns the admitted fraction of ordinary traffic.
func (s *Snapshot) OrdinaryRate() float64 { return s.ordinaryRate }

// Hour returns the decision hour the snapshot was compiled from.
func (s *Snapshot) Hour() int { return s.hour }

// Version returns the control plane's swap counter for this snapshot.
func (s *Snapshot) Version() uint64 { return s.version }

// NumSites returns the number of sites in the table.
func (s *Snapshot) NumSites() int { return len(s.weights) }

// PatternLen returns the wheel length: the cycle within which RouteN
// matches Table.RouteN exactly.
func (s *Snapshot) PatternLen() int { return len(s.pattern) }
