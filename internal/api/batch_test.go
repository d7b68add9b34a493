package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

func TestDecideBatch(t *testing.T) {
	ts := newTestServer(t)
	hour := DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}
	req := BatchDecideRequest{Hours: []DecideRequest{hour, hour, hour, hour}}
	var out BatchDecideResponse
	resp := postJSON(t, ts.URL+"/v1/decide/batch", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Hours) != len(req.Hours) {
		t.Fatalf("got %d hours, want %d", len(out.Hours), len(req.Hours))
	}
	for i, h := range out.Hours {
		if h.Error != "" || h.Decision == nil {
			t.Fatalf("hours[%d] = %+v, want a decision", i, h)
		}
		if h.Decision.Step != "cost-min" || h.Decision.Served <= 0 || len(h.Decision.Sites) != 3 {
			t.Fatalf("hours[%d].decision = %+v", i, h.Decision)
		}
		// Identical inputs must produce identical answers regardless of which
		// goroutine solved them.
		if h.Decision.Served != out.Hours[0].Decision.Served {
			t.Errorf("hours[%d] served %v != hours[0] %v", i, h.Decision.Served, out.Hours[0].Decision.Served)
		}
	}
}

// TestDecideBatchPerHourErrors pins that one bad hour fails only its own
// slot: validation errors surface at batch level (the request is malformed),
// while solver-level failures stay per-hour. Here every hour is valid, so we
// check the validation rejection separately.
func TestDecideBatchRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t)
	good := DecideRequest{TotalLambda: 1e12, DemandMW: []float64{170, 190, 150}}

	cases := []struct {
		name string
		req  BatchDecideRequest
	}{
		{"empty", BatchDecideRequest{}},
		{"per-hour timeout", BatchDecideRequest{Hours: []DecideRequest{{
			TotalLambda: 1e12, DemandMW: []float64{170, 190, 150}, TimeoutMS: 5,
		}}}},
		{"per-hour resilient", BatchDecideRequest{Hours: []DecideRequest{{
			TotalLambda: 1e12, DemandMW: []float64{170, 190, 150}, Resilient: true,
		}}}},
		{"invalid hour", BatchDecideRequest{Hours: []DecideRequest{good, {
			TotalLambda: -1, DemandMW: []float64{170, 190, 150},
		}}}},
	}
	for _, tc := range cases {
		var e errorBody
		resp := postJSON(t, ts.URL+"/v1/decide/batch", tc.req, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", tc.name, resp.StatusCode, e.Error)
		}
	}

	over := BatchDecideRequest{}
	for i := 0; i < maxBatchHours+1; i++ {
		over.Hours = append(over.Hours, good)
	}
	if resp := postJSON(t, ts.URL+"/v1/decide/batch", over, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestConcurrentDecides hammers POST /v1/decide from many goroutines against
// one shared System. Run under -race in CI, it is the regression probe for
// the handler-sharing audit: every decision-path field of core.System is
// immutable after construction and the metrics pointer is atomic, so
// concurrent decisions must neither race nor disagree.
func TestConcurrentDecides(t *testing.T) {
	ts := newTestServer(t)
	req := DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 8, 5
	served := make([][]float64, clients)
	failures := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
				if err != nil {
					failures[c] = err
					return
				}
				var dec DecideResponse
				err = json.NewDecoder(resp.Body).Decode(&dec)
				resp.Body.Close()
				if err != nil {
					failures[c] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					failures[c] = fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				served[c] = append(served[c], dec.Served)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range failures {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for c := range served {
		for _, got := range served[c] {
			if got != served[0][0] {
				t.Fatalf("client %d served %v, first answer %v — shared state leaked between decides", c, got, served[0][0])
			}
		}
	}
}
