package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// newTestServerHandle is newTestServer but also returns the *Server so tests
// can reach the drain flag and the degradation ladder's injection seams.
func newTestServerHandle(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func readyStatus(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /readyz: %v", err)
	}
	return resp.StatusCode, body
}

func TestReadyzDrainToggle(t *testing.T) {
	srv, ts := newTestServerHandle(t)
	if code, body := readyStatus(t, ts.URL); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("fresh server /readyz = %d %v", code, body)
	}
	srv.SetDraining(true)
	if code, body := readyStatus(t, ts.URL); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("draining /readyz = %d %v", code, body)
	}
	srv.SetDraining(false)
	if code, _ := readyStatus(t, ts.URL); code != http.StatusOK {
		t.Fatalf("undrained /readyz = %d", code)
	}
}

// decideAt posts one resilient decision for the given hour and returns the
// response. The inputs mirror the paper's nominal hour so the healthy path is
// a clean optimal solve.
func decideAt(t *testing.T, url string, hour int) DecideResponse {
	t.Helper()
	var dec DecideResponse
	resp := postJSON(t, url+"/v1/decide", DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		Hour:          hour,
		Resilient:     true,
	}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resilient decide hour %d = %d", hour, resp.StatusCode)
	}
	return dec
}

// TestReadyzDegradedTrip drives the readiness trip end to end: three
// consecutive resilient decisions forced onto the fallback rung flip /readyz
// to 503, and one healthy decision resets it.
func TestReadyzDegradedTrip(t *testing.T) {
	srv, ts := newTestServerHandle(t)
	for h := 1; h <= maxConsecutiveDegraded; h++ {
		srv.Resilient().InjectSolverFailure(h)
		dec := decideAt(t, ts.URL, h)
		if dec.Degraded != "fallback" {
			t.Fatalf("hour %d degraded = %q, want fallback", h, dec.Degraded)
		}
		code, _ := readyStatus(t, ts.URL)
		if h < maxConsecutiveDegraded && code != http.StatusOK {
			t.Fatalf("/readyz tripped after only %d degraded decisions", h)
		}
		if h == maxConsecutiveDegraded && code != http.StatusServiceUnavailable {
			t.Fatalf("/readyz still %d after %d consecutive degraded decisions", code, h)
		}
	}
	if code, body := readyStatus(t, ts.URL); code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("tripped /readyz = %d %v", code, body)
	}
	// One healthy decision resets the trip.
	if dec := decideAt(t, ts.URL, maxConsecutiveDegraded+1); dec.Degraded != "" {
		t.Fatalf("healthy hour degraded = %q", dec.Degraded)
	}
	if code, _ := readyStatus(t, ts.URL); code != http.StatusOK {
		t.Fatalf("/readyz did not recover after a healthy decision: %d", code)
	}
}

// TestResilientDecideDegradedResponse pins the wire shape of a degraded
// answer: 200, degraded "fallback", and a usable allocation.
func TestResilientDecideDegradedResponse(t *testing.T) {
	srv, ts := newTestServerHandle(t)
	srv.Resilient().InjectSolverFailure(7)
	dec := decideAt(t, ts.URL, 7)
	if dec.Degraded != "fallback" {
		t.Errorf("degraded = %q, want fallback", dec.Degraded)
	}
	if dec.Served <= 0 || len(dec.Sites) != 3 {
		t.Errorf("degraded decision not usable: served %v, %d sites", dec.Served, len(dec.Sites))
	}
}

// TestResilientDecideTinyTimeout: on the resilient path an exhausted request
// deadline can never surface as an error — the ladder answers 200 with a
// degraded allocation instead.
func TestResilientDecideTinyTimeout(t *testing.T) {
	_, ts := newTestServerHandle(t)
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		TimeoutMS:     1e-6,
		Resilient:     true,
	}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resilient decide with expired deadline = %d", resp.StatusCode)
	}
	if dec.Degraded == "" {
		t.Error("expired deadline produced an allegedly optimal answer")
	}
	if dec.Served <= 0 {
		t.Errorf("degraded decision served %v", dec.Served)
	}
}

// TestStrictDecideTinyTimeout: the non-resilient path under an exhausted
// deadline either fails fast with 504 or answers 200 carrying its best
// incumbent, explicitly marked degraded — never a silent pseudo-optimum.
func TestStrictDecideTinyTimeout(t *testing.T) {
	_, ts := newTestServerHandle(t)
	var dec DecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide", DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		TimeoutMS:     1e-6,
	}, &dec)
	switch resp.StatusCode {
	case http.StatusGatewayTimeout:
		// Deadline expired before the solver could produce anything.
	case http.StatusOK:
		if dec.Degraded == "" {
			t.Error("timed-out solve answered 200 without a degraded marker")
		}
	default:
		t.Fatalf("strict decide with expired deadline = %d", resp.StatusCode)
	}
}

// TestRecoveredMiddleware pins the panic envelope without going through a
// real route: any handler panic becomes a JSON 500, not a dropped connection.
func TestRecoveredMiddleware(t *testing.T) {
	h := recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("solver bug")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not the JSON envelope: %v", err)
	}
	if !strings.Contains(body.Error, "solver bug") || !strings.Contains(body.Error, "/v1/decide") {
		t.Errorf("panic envelope %q missing cause or path", body.Error)
	}
}

// TestPanickingRouteStaysInstrumented checks the full middleware stack: a
// panic inside a registered route still yields the envelope through the
// instrumented handler chain.
func TestPanickingRouteStaysInstrumented(t *testing.T) {
	srv, _ := newTestServerHandle(t)
	srv.handle("/v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("instrumented panic route = %d", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("instrumented panic lost the envelope: %v %q", err, rec.Body.String())
	}
}

// TestHugeLoadDecideAnswers poses loads seven and ten orders of magnitude
// above the fleet's capacity. Their root relaxations once spun the LP
// forever on weak pivots, holding the request (and, on a committing
// server, the hour lock) past any timeout. Resilient requests must answer
// 200 on a degraded rung, and plain ones within the status contract, each
// inside 2 s.
func TestHugeLoadDecideAnswers(t *testing.T) {
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Closed only on success: Close waits for in-flight handlers, and a
	// regression leaves one spinning.
	ts := httptest.NewServer(s.Handler())
	for _, lam := range []float64{1e19, 1e22} {
		for _, resilient := range []bool{true, false} {
			req := DecideRequest{
				TotalLambda: lam,
				DemandMW:    []float64{170, 190, 150},
				TimeoutMS:   200,
				Resilient:   resilient,
			}
			done := make(chan struct{})
			var dec DecideResponse
			var status int
			go func() {
				defer close(done)
				buf, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(buf))
				if err != nil {
					return
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				_ = json.NewDecoder(resp.Body).Decode(&dec)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("λ=%g resilient=%v: no answer within 2 s", lam, resilient)
			}
			switch {
			case resilient && (status != http.StatusOK || dec.Degraded == ""):
				t.Errorf("λ=%g: resilient decide = %d on rung %q, want 200 degraded", lam, status, dec.Degraded)
			case !resilient && status != http.StatusOK && status != http.StatusInternalServerError &&
				status != http.StatusGatewayTimeout:
				t.Errorf("λ=%g: plain decide = %d", lam, status)
			case status == http.StatusOK && dec.Served > lam:
				t.Errorf("λ=%g: served %v", lam, dec.Served)
			}
		}
	}
	ts.Close()
}
