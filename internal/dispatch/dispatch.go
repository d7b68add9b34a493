// Package dispatch turns the bill capper's per-site workload fractions into
// an actual request-routing mechanism, modeling the authoritative-DNS
// dispatcher the paper assumes (§III): "the Authoritative Domain Name
// System (DNS) is deployed to take the request dispatcher role by mapping
// the request URL hostname into the IP address of the destined data
// centers", with no inter-site migration once a request is routed.
//
// Two layers are provided:
//
//   - a weighted routing Table with deterministic, low-discrepancy request
//     assignment (suitable for per-request decisions), and
//   - an admission Gate implementing the paper's two-class policy: premium
//     requests always pass, ordinary requests pass at the capper's
//     admission rate.
package dispatch

import (
	"fmt"
	"math"
)

// Table routes individual requests to sites in proportion to the capper's
// per-site allocation using the largest-remainder (Webster-like) method:
// after n requests, every site has received within ±1.5 of n·weight (the
// bound TestRouteDiscrepancyProperty checks; equal or small-integer-ratio
// loads reach about 1.07) — far tighter than hashing and fully
// deterministic.
type Table struct {
	weights []float64
	// active lists the sites whose weight is positive, in index order;
	// share[j] and credit[j] are active[j]'s weight and running credit. A
	// zero-weight site's credit would stay exactly 0 while the best credit
	// after each step is about 1/len(active) > 0, so it could never be
	// picked: Route walks only the active sites and routes the sequence a
	// walk over all of them would.
	active []int
	share  []float64
	credit []float64
}

// NewTable builds a routing table from the capper's per-site loads. At
// least one load must be positive.
func NewTable(lambdas []float64) (*Table, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("dispatch: no sites")
	}
	total := 0.0
	for i, l := range lambdas {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("dispatch: bad load %v at site %d", l, i)
		}
		total += l
	}
	if total <= 0 {
		return nil, fmt.Errorf("dispatch: all-zero allocation")
	}
	if math.IsInf(total, 0) {
		// Each load is finite but the sum overflowed; weights would all
		// collapse to 0.
		return nil, fmt.Errorf("dispatch: total load overflows")
	}
	t := &Table{weights: make([]float64, len(lambdas))}
	for i, l := range lambdas {
		// Test the weight, not the load: a tiny positive load can
		// underflow to weight 0.
		if t.weights[i] = l / total; t.weights[i] > 0 {
			t.active = append(t.active, i)
			t.share = append(t.share, t.weights[i])
		}
	}
	t.credit = make([]float64, len(t.active))
	return t, nil
}

// Weights returns the routing fractions (summing to 1).
func (t *Table) Weights() []float64 { return append([]float64(nil), t.weights...) }

// Route assigns the next request and returns its site index. It costs
// O(active sites).
func (t *Table) Route() int {
	best, bestCredit := 0, math.Inf(-1)
	for j, w := range t.share {
		t.credit[j] += w
		if t.credit[j] > bestCredit {
			bestCredit = t.credit[j]
			best = j
		}
	}
	t.credit[best]--
	return t.active[best]
}

// RouteN assigns n requests and returns the per-site counts.
func (t *Table) RouteN(n int) []int {
	counts := make([]int, len(t.weights))
	for k := 0; k < n; k++ {
		counts[t.Route()]++
	}
	return counts
}

// Class labels a request's customer class.
type Class int

// Customer classes (paper §V: premium customers pay; ordinary customers
// enjoy complimentary service).
const (
	Premium Class = iota
	Ordinary
)

// Gate applies the capper's admission decision per request class.
type Gate struct {
	// ordinaryRate is the admitted fraction of ordinary traffic in [0,1].
	ordinaryRate float64
	credit       float64
}

// NewGate builds the admission gate from a capper decision: served ordinary
// over arrived ordinary. Premium is never gated.
func NewGate(servedOrdinary, arrivedOrdinary float64) (*Gate, error) {
	if !isFiniteNonNeg(servedOrdinary) || !isFiniteNonNeg(arrivedOrdinary) {
		return nil, fmt.Errorf("dispatch: bad rates %v/%v", servedOrdinary, arrivedOrdinary)
	}
	rate := 1.0
	if arrivedOrdinary > 0 {
		rate = servedOrdinary / arrivedOrdinary
		if rate > 1 {
			rate = 1
		}
	}
	return &Gate{ordinaryRate: rate}, nil
}

// isFiniteNonNeg reports whether v is a usable rate: finite and ≥ 0. A NaN
// slips past plain `v < 0` (every comparison with NaN is false), which
// historically let NewGate build a gate whose NaN ordinaryRate silently
// dropped all ordinary traffic forever.
func isFiniteNonNeg(v float64) bool {
	return v >= 0 && !math.IsInf(v, 0)
}

// OrdinaryRate returns the admitted fraction of ordinary traffic.
func (g *Gate) OrdinaryRate() float64 { return g.ordinaryRate }

// Admit decides one request deterministically (largest-remainder pacing for
// ordinary traffic, so admissions are evenly spread rather than bursty).
func (g *Gate) Admit(c Class) bool {
	if c == Premium {
		return true
	}
	g.credit += g.ordinaryRate
	if g.credit >= 1 {
		g.credit--
		return true
	}
	return false
}
