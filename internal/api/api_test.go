package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	var body map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health = %d %v", resp.StatusCode, body)
	}
}

func TestSites(t *testing.T) {
	ts := newTestServer(t)
	var sites []SiteInfo
	resp := getJSON(t, ts.URL+"/v1/sites", &sites)
	if resp.StatusCode != http.StatusOK || len(sites) != 3 {
		t.Fatalf("sites = %d, status %d", len(sites), resp.StatusCode)
	}
	if sites[0].Name != "DC1-B" || sites[0].MaxLambda <= 0 || sites[0].PowerCapMW != 105 {
		t.Errorf("site[0] = %+v", sites[0])
	}
}

func TestPolicies(t *testing.T) {
	ts := newTestServer(t)
	var pols []PolicyInfo
	resp := getJSON(t, ts.URL+"/v1/policies", &pols)
	if resp.StatusCode != http.StatusOK || len(pols) != 3 {
		t.Fatalf("policies = %d, status %d", len(pols), resp.StatusCode)
	}
	if len(pols[0].Rates) != 5 || pols[0].Rates[0] != 10 {
		t.Errorf("policy[0] = %+v", pols[0])
	}
}

func TestDecideUncappedAndCapped(t *testing.T) {
	ts := newTestServer(t)
	req := DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", req, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if dec.Step != "cost-min" || dec.Served <= 0 || len(dec.Sites) != 3 {
		t.Fatalf("decision = %+v", dec)
	}

	tiny := 1.0
	req.BudgetUSD = &tiny
	var capped DecideResponse
	resp = postJSON(t, ts.URL+"/v1/decide", req, &capped)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if capped.Step != "premium-only" {
		t.Errorf("step = %q, want premium-only under a $1 budget", capped.Step)
	}
	if capped.ServedOrdinary != 0 {
		t.Errorf("ordinary served %v", capped.ServedOrdinary)
	}
}

func TestDecideDecomposedReportsGap(t *testing.T) {
	// A server running the fleet-scale decomposition path must surface the
	// subgradient effort and the proven primal–dual gap on the wire.
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1),
		core.Options{Decompose: true, DecomposeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda: 1.5e12, PremiumLambda: 1.2e12,
		DemandMW: []float64{170, 190, 150},
	}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if dec.SolverDecompIterations == 0 {
		t.Errorf("no decomposition iterations reported: %+v", dec)
	}
	if dec.SolverDecompDualBound == 0 {
		t.Errorf("no dual bound reported: %+v", dec)
	}
	if dec.SolverNodes != 0 {
		t.Errorf("decomposed decision still explored %d MILP nodes", dec.SolverNodes)
	}
	if dec.Served <= 0 || len(dec.Sites) != 3 {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestDecideThenRealizeRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	var dec DecideResponse
	postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda: 1e12, DemandMW: []float64{170, 190, 150},
	}, &dec)
	lams := make([]float64, len(dec.Sites))
	for i, sd := range dec.Sites {
		lams[i] = sd.Lambda
	}
	var real RealizeResponse
	resp := postJSON(t, ts.URL+"/v1/realize", RealizeRequest{
		Lambdas: lams, DemandMW: []float64{170, 190, 150},
	}, &real)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if real.BillUSD <= 0 || real.CapViolations != 0 {
		t.Fatalf("realize = %+v", real)
	}
	if math.Abs(real.BillUSD-dec.PredictedCostUSD) > 0.05*dec.PredictedCostUSD {
		t.Errorf("bill %v far from prediction %v", real.BillUSD, dec.PredictedCostUSD)
	}
}

// TestErrorStatuses pins the API's status-code contract: client mistakes —
// wrong method, undecodable or semantically invalid bodies — are 4xx, and
// the exact code for each failure class is part of the interface.
func TestErrorStatuses(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"wrong method on sites", http.MethodPost, "/v1/sites", "{}", http.StatusMethodNotAllowed},
		{"wrong method on decide", http.MethodGet, "/v1/decide", "", http.StatusMethodNotAllowed},
		{"wrong method on realize", http.MethodGet, "/v1/realize", "", http.StatusMethodNotAllowed},
		{"wrong method on model", http.MethodGet, "/v1/model", "", http.StatusMethodNotAllowed},
		{"undecodable body", http.MethodPost, "/v1/decide", "{nope", http.StatusBadRequest},
		{"negative workload", http.MethodPost, "/v1/decide",
			`{"totalLambda": -1, "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"premium above total", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "premiumLambda": 2, "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"demand arity", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "demandMW": [1]}`, http.StatusBadRequest},
		{"negative budget", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "demandMW": [1, 2, 3], "budgetUSD": -5}`, http.StatusBadRequest},
		{"availability arity", http.MethodPost, "/v1/decide",
			`{"totalLambda": 1, "demandMW": [1, 2, 3], "down": [true]}`, http.StatusBadRequest},
		{"realize arity", http.MethodPost, "/v1/realize",
			`{"lambdas": [1], "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"realize negative load", http.MethodPost, "/v1/realize",
			`{"lambdas": [-1, 0, 0], "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"model negative workload", http.MethodPost, "/v1/model",
			`{"totalLambda": -1, "demandMW": [1, 2, 3]}`, http.StatusBadRequest},
		{"unknown endpoint", http.MethodGet, "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
				t.Errorf("%s %s: error envelope missing (%v)", tc.method, tc.path, err)
			}
		})
	}
}

func TestModelDump(t *testing.T) {
	ts := newTestServer(t)
	buf, _ := json.Marshal(DecideRequest{
		TotalLambda: 1e12, DemandMW: []float64{170, 190, 150},
	})
	resp, err := http.Post(ts.URL+"/v1/model", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "min:") || !strings.Contains(text, "int ") {
		t.Fatalf("dump does not look like an LP model:\n%.200s", text)
	}
	// Bad input → 400.
	bad, _ := json.Marshal(DecideRequest{TotalLambda: -1, DemandMW: []float64{1, 2, 3}})
	resp2, err := http.Post(ts.URL+"/v1/model", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad input status %d", resp2.StatusCode)
	}
}

// postModel returns the /v1/model dump for req, failing on any status but 200.
func postModel(t *testing.T, url string, req DecideRequest) string {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/model", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model: status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// TestModelDumpReadsTheWholeRequest: the dump poses the hour /v1/decide
// would solve, so an outage, a demand charge and the server's live tariff
// position each change it, and dumping commits nothing to that position.
func TestModelDumpReadsTheWholeRequest(t *testing.T) {
	plain := DecideRequest{TotalLambda: 1e12, DemandMW: []float64{170, 190, 150}}
	ts := newTestServer(t)
	base := postModel(t, ts.URL, plain)

	down := plain
	down.Down = []bool{true, false, false}
	if postModel(t, ts.URL, down) == base {
		t.Error("a down site left the dump unchanged")
	}
	charged := plain
	charged.DemandChargeUSDPerMW = 1500
	charged.PeakMW = []float64{0, 0, 0}
	if postModel(t, ts.URL, charged) == base {
		t.Error("a demand charge left the dump unchanged")
	}

	tariff := httptest.NewServer(tariffServer(t, 1500, false).Handler())
	defer tariff.Close()
	if postModel(t, tariff.URL, plain) == base {
		t.Error("the server's demand charge left the dump unchanged")
	}
	var pos TariffResponse
	getJSON(t, tariff.URL+"/v1/tariff", &pos)
	for _, row := range pos.Sites {
		if row.PeakMW != 0 {
			t.Errorf("dumping moved site %s's peak to %v", row.Site, row.PeakMW)
		}
	}
}
