package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsEndpoint is the issue's acceptance check: after one
// POST /v1/decide, GET /metrics shows a non-zero billcap_decide_total,
// per-step decision counters, MILP node/pivot counters, and the HTTP
// middleware's own series.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"billcap_decide_total 1",
		`billcap_decide_step_total{step="cost-min"} 1`,
		`billcap_decide_step_total{step="premium-only"} 0`,
		`billcap_http_requests_total{route="/v1/decide",method="POST",code="200"} 1`,
		"billcap_http_request_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// MILP effort counters must be non-zero after a real decision.
	for _, prefix := range []string{"billcap_milp_nodes_total ", "billcap_milp_pivots_total ", "billcap_milp_solves_total "} {
		line := findLine(out, prefix)
		if line == "" || strings.HasSuffix(line, " 0") {
			t.Errorf("counter %q zero or missing (line %q)", prefix, line)
		}
	}
}

// TestDecideReportsBudgetCutoff: an hour whose step 1 stopped at its bound
// says so in its answer ("solverCutoffs") and on /metrics
// (billcap_decide_budget_cutoffs_total); an hour within budget carries no
// solverCutoffs key.
func TestDecideReportsBudgetCutoff(t *testing.T) {
	ts := newTestServer(t)
	decide := func(budget *float64) map[string]any {
		var answer map[string]any
		resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
			TotalLambda:   1.5e12,
			PremiumLambda: 1.2e12,
			DemandMW:      []float64{170, 190, 150},
			BudgetUSD:     budget,
		}, &answer)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide status %d", resp.StatusCode)
		}
		return answer
	}
	if answer := decide(nil); answer["solverCutoffs"] != nil {
		t.Errorf("uncapped hour reports solverCutoffs %v", answer["solverCutoffs"])
	}
	one := 1.0
	if answer := decide(&one); answer["solverCutoffs"] != 1.0 || answer["step"] != "premium-only" {
		t.Errorf("$1 hour: step %v, solverCutoffs %v, want premium-only and 1", answer["step"], answer["solverCutoffs"])
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if line := findLine(string(body), "billcap_decide_budget_cutoffs_total "); line != "billcap_decide_budget_cutoffs_total 1" {
		t.Errorf("metrics line %q, want billcap_decide_budget_cutoffs_total 1", line)
	}
}

func findLine(out, prefix string) string {
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, prefix) {
			return ln
		}
	}
	return ""
}

func TestBodyCap(t *testing.T) {
	ts := newTestServer(t)
	// A syntactically valid but oversized (> 1 MiB) body.
	big := `{"totalLambda": 1, "demandMW": [` + strings.Repeat("1,", 600_000) + `1]}`
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body not the JSON envelope: %v %+v", err, e)
	}
}

func TestNotFoundIsJSON(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/nope", "/", "/v2/decide"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || e.Error == "" {
			t.Errorf("GET %s = %d (decode err %v, envelope %+v), want JSON 404", path, resp.StatusCode, err, e)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index = %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestErrorsCountedByStatus checks the middleware labels failures with
// their status code.
func TestErrorsCountedByStatus(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/decide", DecideRequest{TotalLambda: -1, DemandMW: []float64{1, 2, 3}}, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `billcap_http_requests_total{route="/v1/decide",method="POST",code="400"} 1`
	if !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q", want)
	}
}
