package dispatch

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustSnapshot(t *testing.T, lambdas []float64, served, arrived float64) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(lambdas, served, arrived, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSnapshotValidation(t *testing.T) {
	if _, err := NewSnapshot(nil, 0, 0, 0, 1); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := NewSnapshot([]float64{0, 0}, 0, 0, 0, 1); err == nil {
		t.Error("all-zero allocation accepted")
	}
	if _, err := NewSnapshot([]float64{1, math.Inf(1)}, 0, 0, 0, 1); err == nil {
		t.Error("+Inf load accepted")
	}
	if _, err := NewSnapshot([]float64{1, 2}, math.NaN(), 10, 0, 1); err == nil {
		t.Error("NaN gate accepted")
	}
}

// randomLoads draws a load vector for the wheel-equivalence properties:
// random magnitudes or equal or small-integer-ratio loads (whose credits
// tie, exercising the lowest-index tie-break), with idle sites — leading,
// interleaved and trailing zeros — and positive loads that underflow to
// weight 0 or leave a subnormal one. At least one load is normal.
func randomLoads(r *rand.Rand) []float64 {
	k := 1 + r.Intn(80)
	lambdas := make([]float64, k)
	for i := range lambdas {
		switch r.Intn(3) {
		case 0:
			lambdas[i] = r.Float64() * 1e12
		case 1:
			lambdas[i] = 7e11
		default:
			lambdas[i] = float64(1+r.Intn(4)) * 2.5e11
		}
	}
	idle := []float64{0, 0.3, 0.7}[r.Intn(3)]
	lead, trail := r.Intn(k/3+1), r.Intn(k/3+1)
	for i := range lambdas {
		if i < lead || i >= k-trail || r.Float64() < idle {
			switch r.Intn(4) {
			case 0:
				lambdas[i] = math.SmallestNonzeroFloat64 // weight underflows to 0
			case 1:
				lambdas[i] = 1e-300 // weight stays subnormal, > 0
			default:
				lambdas[i] = 0
			}
		}
	}
	hi := k - trail
	if hi <= lead {
		hi = k
	}
	keep := lead + r.Intn(hi-lead)
	if lambdas[keep] < 1 {
		lambdas[keep] = 3e11
	}
	return lambdas
}

// TestSnapshotMatchesRouteN: within one wheel cycle the O(1) sampler routes
// the exact site sequence a fresh Table over the same loads would.
func TestSnapshotMatchesRouteN(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lambdas := randomLoads(r)
		snap := mustSnapshot(t, lambdas, 1, 1)
		tbl, err := NewTable(lambdas)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for k := 0; k < snap.PatternLen(); k++ {
			if got, want := snap.Route(), tbl.Route(); got != want {
				t.Logf("seed %d: request %d routed to site %d, table says %d", seed, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWraparound: beyond one cycle the per-site deviation from
// n·weight grows at most by 1 per wrapped cycle (each cycle routes the
// exact largest-remainder apportionment of PatternLen requests).
func TestSnapshotWraparound(t *testing.T) {
	lambdas := []float64{3e11, 1e11, 6e11}
	snap := mustSnapshot(t, lambdas, 1, 1)
	cycles := 5
	n := cycles*snap.PatternLen() + 1234
	counts := snap.RouteBatch(n)
	w := snap.Weights()
	for i, c := range counts {
		if dev := math.Abs(float64(c) - float64(n)*w[i]); dev > float64(cycles)+2 {
			t.Errorf("site %d deviates by %v after %d requests (%d cycles)", i, dev, n, cycles)
		}
	}
}

// TestSnapshotRouteBatchMatchesSequential: one fetch-add batch routes the
// same multiset of sites as n individual Route calls from the same cursor.
func TestSnapshotRouteBatchMatchesSequential(t *testing.T) {
	lambdas := []float64{5, 10, 15, 2}
	a := mustSnapshot(t, lambdas, 1, 1)
	b := mustSnapshot(t, lambdas, 1, 1)
	for _, n := range []int{1, 7, 4096, a.PatternLen(), 2*a.PatternLen() + 77} {
		ca := a.RouteBatch(n)
		cb := b.RouteN(n)
		for i := range ca {
			if ca[i] != int64(cb[i]) {
				t.Fatalf("n=%d site %d: batch %d sequential %d", n, i, ca[i], cb[i])
			}
		}
	}
}

// TestSnapshotAdmitMatchesGate: the ordinal-arithmetic pacing admits the
// same prefix counts as the credit-based Gate, and AdmitBatch agrees with
// request-at-a-time admission.
func TestSnapshotAdmitMatchesGate(t *testing.T) {
	for _, rate := range []struct{ served, arrived float64 }{
		{0, 100}, {30, 100}, {100, 100}, {1, 3}, {99, 100},
	} {
		snap := mustSnapshot(t, []float64{1, 1}, rate.served, rate.arrived)
		gate, err := NewGate(rate.served, rate.arrived)
		if err != nil {
			t.Fatal(err)
		}
		snapAdmitted, gateAdmitted := 0, 0
		for i := 0; i < 1000; i++ {
			if snap.Admit(Ordinary) {
				snapAdmitted++
			}
			if gate.Admit(Ordinary) {
				gateAdmitted++
			}
			if d := snapAdmitted - gateAdmitted; d < -1 || d > 1 {
				t.Fatalf("rate %v/%v: snapshot admitted %d, gate %d after %d",
					rate.served, rate.arrived, snapAdmitted, gateAdmitted, i+1)
			}
		}
		batch := mustSnapshot(t, []float64{1, 1}, rate.served, rate.arrived)
		if got := batch.AdmitBatch(1000); got != snapAdmitted {
			t.Errorf("rate %v/%v: AdmitBatch(1000)=%d, sequential=%d",
				rate.served, rate.arrived, got, snapAdmitted)
		}
		if !snap.Admit(Premium) {
			t.Error("premium gated")
		}
	}
}

// TestSnapshotConcurrentConservation: many goroutines routing on one
// snapshot lose zero requests — the striped counters sum to exactly the
// number of Route calls — and the aggregate distribution stays within the
// wheel's discrepancy bound of the weights. Run with -race.
func TestSnapshotConcurrentConservation(t *testing.T) {
	lambdas := []float64{3e11, 1e11, 6e11}
	snap := mustSnapshot(t, lambdas, 80, 100)
	const goroutines = 8
	const perG = 25000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					snap.Route()
				} else if i%100 == 0 {
					snap.RouteBatch(100)
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	counts := snap.SiteCounts()
	for _, c := range counts {
		total += c
	}
	want := int64(goroutines * perG)
	if total != want {
		t.Fatalf("routed %d of %d requests (lost %d)", total, want, want-total)
	}
	if got := snap.Routed(); int64(got) != want {
		t.Fatalf("cursor %d, want %d", got, want)
	}
	w := snap.Weights()
	cycles := float64(int(want)/snap.PatternLen()) + 2
	for i, c := range counts {
		if dev := math.Abs(float64(c) - float64(want)*w[i]); dev > cycles {
			t.Errorf("site %d deviates by %v after %d concurrent requests", i, dev, want)
		}
	}
}

func TestSnapshotDroppedOrdinary(t *testing.T) {
	snap := mustSnapshot(t, []float64{1, 1}, 25, 100)
	admitted := snap.AdmitBatch(1000)
	if d := snap.DroppedOrdinary(); d != int64(1000-admitted) {
		t.Fatalf("dropped %d, admitted %d of 1000", d, admitted)
	}
	if snap.NoteArrivals(7) != 7 || snap.Arrivals() != 7 {
		t.Error("arrival accounting off")
	}
}

// BenchmarkNewSnapshot times compiling a decision into a routing snapshot
// (the wheel walk dominates) with half of the sites idle, so the wheel walks
// only the other half.
func BenchmarkNewSnapshot(b *testing.B) {
	for _, n := range []int{3, 13, 50, 200} {
		lambdas := make([]float64, n)
		for i := range lambdas {
			if i%2 == 0 {
				lambdas[i] = float64(1+i%7) * 1e11
			}
		}
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewSnapshot(lambdas, 1, 1, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
