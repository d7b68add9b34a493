package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// newRouteTestServer returns both the Server (for RoutePlane access) and its
// HTTP front.
func newRouteTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// decideOnce installs a routing table by solving one uncapped hour.
func decideOnce(t *testing.T, ts *httptest.Server, total, premium float64, hour int) {
	t.Helper()
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda: total, PremiumLambda: premium,
		DemandMW: []float64{170, 190, 150}, Hour: hour, Resilient: true,
	}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide = %d", resp.StatusCode)
	}
}

// TestRouteLifecycle walks the data plane's happy path: 503 before any
// decision, then decide → route → introspect → metrics.
func TestRouteLifecycle(t *testing.T) {
	s, ts := newRouteTestServer(t)

	var errBody errorBody
	if resp := postJSON(t, ts.URL+"/v1/route", RouteRequest{}, &errBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("route before decide = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/route/table", &errBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("table before decide = %d, want 503", resp.StatusCode)
	}

	decideOnce(t, ts, 1e12, 4e11, 1)

	var rr RouteResponse
	if resp := postJSON(t, ts.URL+"/v1/route", RouteRequest{Class: "premium"}, &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("route = %d", resp.StatusCode)
	}
	if !rr.Admitted || rr.Site == "" || rr.SiteIndex < 0 || rr.SiteIndex > 2 || rr.Version != 1 {
		t.Fatalf("route response %+v", rr)
	}
	if resp := postJSON(t, ts.URL+"/v1/route", RouteRequest{Class: "bogus"}, &errBody); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus class = %d, want 400", resp.StatusCode)
	}

	var tbl RouteTableResponse
	if resp := getJSON(t, ts.URL+"/v1/route/table", &tbl); resp.StatusCode != http.StatusOK {
		t.Fatalf("table = %d", resp.StatusCode)
	}
	if tbl.Version != 1 || tbl.Hour != 1 || tbl.Routed != 1 || tbl.Arrivals != 1 {
		t.Fatalf("table %+v", tbl)
	}
	sum := 0.0
	for _, w := range tbl.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum %v", sum)
	}
	if tbl.DriftRatio != defaultDriftRatio || tbl.DriftPredicted != 1e12 {
		t.Errorf("drift posture %v/%v", tbl.DriftRatio, tbl.DriftPredicted)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"billcap_routes_total{site=", "billcap_route_table_swaps_total 1",
		"billcap_route_drift_resolves_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if s.RoutePlane().Snapshot().Routed() != 1 {
		t.Error("snapshot routed count off")
	}
}

// TestRouteBatch exercises the closed-form batch path and its validation.
func TestRouteBatch(t *testing.T) {
	_, ts := newRouteTestServer(t)
	decideOnce(t, ts, 1e12, 4e11, 0)

	var br RouteBatchResponse
	if resp := postJSON(t, ts.URL+"/v1/route/batch", RouteBatchRequest{Total: 100000, Premium: 40000}, &br); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	if br.Requests != 100000 || br.Routed != 40000+br.AdmittedOrd || br.AdmittedOrd+br.DroppedOrd != 60000 {
		t.Fatalf("batch accounting %+v", br)
	}
	var sum int64
	for _, sc := range br.Sites {
		sum += sc.Count
	}
	if sum != br.Routed {
		t.Fatalf("site counts sum %d, routed %d", sum, br.Routed)
	}
	var errBody errorBody
	for _, bad := range []RouteBatchRequest{
		{Total: 0}, {Total: -5}, {Total: maxBatchRoute + 1},
		{Total: 10, Premium: 11}, {Total: 10, Premium: -1},
	} {
		if resp := postJSON(t, ts.URL+"/v1/route/batch", bad, &errBody); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %+v = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRouteConcurrentSwap is the chaos-soak of the data plane: goroutines
// route continuously while the control plane installs new tables and a
// drift-triggered re-solve swaps one in mid-hour. Zero requests may be lost
// (every Route call lands in exactly one site counter) and post-swap traffic
// must converge to the new table's weights. Run with -race.
func TestRouteConcurrentSwap(t *testing.T) {
	s, ts := newRouteTestServer(t)
	if err := s.SetDriftRatio(1.5); err != nil {
		t.Fatal(err)
	}
	plane := s.RoutePlane()
	decideOnce(t, ts, 1e12, 4e11, 0)

	const routers = 6
	const perRouter = 30000
	var issued atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < routers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perRouter; i++ {
				snap := plane.Snapshot()
				if g%2 == 0 {
					if site := snap.Route(); site < 0 || site >= snap.NumSites() {
						t.Errorf("misrouted to site %d", site)
						return
					}
					issued.Add(1)
				} else if i%64 == 0 {
					snap.RouteBatch(64)
					issued.Add(64)
				}
			}
		}(g)
	}

	// Control plane: swap tables mid-flight (staying within the flush ring so
	// conservation over the registry is exact).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 3; i++ {
			decideOnce(t, ts, float64(1+i)*2e11, 1e11, i)
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
	}()

	// Drift: push arrivals far past ratio×predicted and wait for the async
	// re-solve to swap in a scaled table.
	wg.Wait()
	<-stop
	versionBefore := plane.Snapshot().Version()
	plane.noteArrivals(plane.Snapshot(), 2<<40)
	deadline := time.Now().Add(10 * time.Second)
	for plane.Snapshot().Version() == versionBefore {
		if time.Now().After(deadline) {
			t.Fatal("drift re-solve never swapped a table")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Conservation: every issued route appears in the flushed counters.
	plane.FlushMetrics()
	var flushed float64
	for _, name := range plane.siteNames {
		flushed += plane.routes.With(name).Value()
	}
	if int64(flushed) != issued.Load() {
		t.Fatalf("flushed %v routes, issued %d (lost %d)", flushed, issued.Load(), issued.Load()-int64(flushed))
	}
	if got := plane.swaps.Value(); got < 5 {
		t.Errorf("swaps %v, want ≥ 5 (4 decides + ≥1 drift re-solve)", got)
	}
	if got := plane.driftResolves.Value(); got < 1 {
		t.Errorf("drift resolves %v, want ≥ 1", got)
	}

	// Convergence: traffic on the final table follows its weights.
	final := plane.Snapshot()
	const n = 200000
	counts := final.RouteBatch(n)
	w := final.Weights()
	for i, c := range counts {
		if dev := math.Abs(float64(c) - n*w[i]); dev > float64(n/final.PatternLen())+2 {
			t.Errorf("site %d deviates by %v on the new table", i, dev)
		}
	}
}

// TestRouteDriftDisabled proves ratio 0 switches the detector off entirely.
func TestRouteDriftDisabled(t *testing.T) {
	s, ts := newRouteTestServer(t)
	if err := s.SetDriftRatio(0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{1, 0.5, -3, math.NaN(), math.Inf(1)} {
		if err := s.SetDriftRatio(bad); err == nil {
			t.Errorf("SetDriftRatio(%v) accepted", bad)
		}
	}
	decideOnce(t, ts, 1e12, 4e11, 0)
	plane := s.RoutePlane()
	plane.noteArrivals(plane.Snapshot(), 2<<40)
	time.Sleep(50 * time.Millisecond)
	if v := plane.Snapshot().Version(); v != 1 {
		t.Errorf("version %d after disabled-drift arrivals, want 1", v)
	}
	if plane.driftResolves.Value() != 0 {
		t.Error("drift re-solve fired while disabled")
	}
	var tbl RouteTableResponse
	getJSON(t, ts.URL+"/v1/route/table", &tbl)
	if tbl.DriftRatio != 0 {
		t.Errorf("table reports drift ratio %v, want 0", tbl.DriftRatio)
	}
}

// TestRouteInstallShedKeepsTable: a decision with nothing to route (shed)
// must not displace the live table.
func TestRouteInstallShedKeepsTable(t *testing.T) {
	s, ts := newRouteTestServer(t)
	decideOnce(t, ts, 1e12, 4e11, 0)
	plane := s.RoutePlane()
	if plane.Snapshot().Version() != 1 {
		t.Fatal("no table installed")
	}
	shed := core.Decision{} // zero sites, zero lambdas
	if plane.Install(core.HourInput{TotalLambda: 1}, shed) {
		t.Fatal("shed decision installed")
	}
	if v := plane.Snapshot().Version(); v != 1 {
		t.Fatalf("version %d after failed install, want 1", v)
	}
}

// driftSolve is the solving half of a drift re-solve: read the live table's
// version and hour input, as resolveDrift does, and solve the hour scaled by
// factor through the ladder.
func driftSolve(plane *RoutePlane, factor float64) (uint64, core.HourInput, core.Decision) {
	plane.mu.Lock()
	in, version := plane.lastIn, plane.version
	plane.mu.Unlock()
	scaled := in.ScaleLoad(factor)
	return version, scaled, plane.resilient.Decide(scaled)
}

// TestRouteDriftSupersededKeepsNewerHour: a drift re-solve for hour h that
// finishes after hour h+1's table went live must leave hour h+1's table and
// detector in place. Without the version guard the late answer was
// installed unconditionally: hour h's scaled table replaced hour h+1's and
// re-armed the detector with hour h's prediction.
func TestRouteDriftSupersededKeepsNewerHour(t *testing.T) {
	s, ts := newRouteTestServer(t)
	plane := s.RoutePlane()
	d := plane.detector.Load()
	decideOnce(t, ts, 1e12, 4e11, 1)
	version, scaled, dec := driftSolve(plane, 2)
	decideOnce(t, ts, 6e11, 2e11, 2) // hour 2 goes live while hour 1 re-solves
	if plane.installDrift(d, version, scaled, dec) {
		t.Fatal("superseded drift answer installed")
	}
	if snap := plane.Snapshot(); snap.Hour() != 2 || snap.Version() != 2 {
		t.Fatalf("live table hour %d version %d, want hour 2 version 2", snap.Hour(), snap.Version())
	}
	if got := d.Predicted(); got != 6e11 {
		t.Errorf("detector armed at %v, want hour 2's 6e11", got)
	}

	// A re-solve of the live table still swaps in.
	version, scaled, dec = driftSolve(plane, 2)
	if !plane.installDrift(d, version, scaled, dec) {
		t.Fatal("drift answer for the live table not installed")
	}
	if snap := plane.Snapshot(); snap.Hour() != 2 || snap.Version() != 3 {
		t.Fatalf("live table hour %d version %d, want hour 2 version 3", snap.Hour(), snap.Version())
	}
	if got := d.Predicted(); got != 1.2e12 {
		t.Errorf("detector armed at %v, want the re-solve's 1.2e12", got)
	}
}

// TestDriftResolveMovesNoRootBases: drift re-solves must not change what
// /v1/decide answers. The route plane's ladder shares the server's System,
// and 48 hours decided with a drift re-solve after every 4th must answer
// byte for byte (solver wall time aside) what the same 48 hours answer
// without them. When the root bases lived in a cache inside the System,
// each re-solve left its bases there and the next hour crashed from them;
// now each ladder carries its own.
func TestDriftResolveMovesNoRootBases(t *testing.T) {
	answers := func(drift bool) [][]byte {
		s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h, plane := s.Handler(), s.RoutePlane()
		if plane.resilient.System() != s.sys {
			t.Fatal("the route plane's ladder runs on a System of its own")
		}
		rng := rand.New(rand.NewSource(20))
		var out [][]byte
		for hour := 1; hour <= 48; hour++ {
			// A diurnal day: consecutive hours share their model's shape,
			// which is when a carried basis is offered.
			total := (0.9 + 0.4*math.Sin(2*math.Pi*float64(hour)/24) + 0.1*rng.Float64()) * 1e12
			req := DecideRequest{
				TotalLambda:   total,
				PremiumLambda: 0.5 * total,
				DemandMW:      []float64{170 + 10*rng.Float64(), 190 + 10*rng.Float64(), 150 + 10*rng.Float64()},
				Hour:          hour,
				Resilient:     true,
			}
			if hour%3 == 0 {
				b := 600 + 600*rng.Float64()
				req.BudgetUSD = &b
			}
			var answer map[string]any
			if err := json.Unmarshal(serveBytes(t, h, http.MethodPost, "/v1/decide", req), &answer); err != nil {
				t.Fatal(err)
			}
			delete(answer, "solverWallMS")
			body, err := json.Marshal(answer)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
			if drift && hour%4 == 0 {
				version, scaled, dec := driftSolve(plane, 2)
				plane.installDrift(plane.detector.Load(), version, scaled, dec)
			}
		}
		return out
	}
	want, got := answers(false), answers(true)
	differ := 0
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			differ++
			t.Logf("hour %d: with drift re-solves %s\nwithout %s", i+1, got[i], want[i])
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d answers changed by drift re-solves", differ, len(want))
	}
}

// TestDriftResolveMovesNoLadderState: a drift re-solve of hour 1 that
// finishes after hour 2's decide must leave the server's ladder as hour 2
// left it. When drift re-solves ran on the server's ladder, the late solve
// became the last good decision, so the stale rung and the journal went back
// to hour 1 with the drift's plan.
func TestDriftResolveMovesNoLadderState(t *testing.T) {
	s, ts := newRouteTestServer(t)
	plane := s.RoutePlane()
	decideOnce(t, ts, 1e12, 4e11, 1)
	plane.mu.Lock()
	in, version := plane.lastIn, plane.version
	plane.mu.Unlock()
	decideOnce(t, ts, 6e11, 2e11, 2) // hour 2 goes live while hour 1 re-solves
	want := s.Resilient().Snapshot()
	scaled := in.ScaleLoad(2)
	if plane.installDrift(plane.detector.Load(), version, scaled, plane.resilient.Decide(scaled)) {
		t.Fatal("superseded drift answer installed")
	}
	if got := s.Resilient().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("drift re-solve moved the ladder: last good hour %d serving %v, want hour %d serving %v",
			got.LastGoodHour, got.LastGood.Served, want.LastGoodHour, want.LastGood.Served)
	}
}

// TestRouteMetricsFlushIsDelta: scraping twice must not double-count.
func TestRouteMetricsFlushIsDelta(t *testing.T) {
	s, ts := newRouteTestServer(t)
	decideOnce(t, ts, 1e12, 4e11, 0)
	plane := s.RoutePlane()
	plane.Snapshot().RouteBatch(1000)
	plane.FlushMetrics()
	plane.FlushMetrics()
	var total float64
	for _, name := range plane.siteNames {
		total += plane.routes.With(name).Value()
	}
	if total != 1000 {
		t.Fatalf("flushed %v, want 1000", total)
	}
}
