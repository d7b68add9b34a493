package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

func stateServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableState(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

func resilientReq(hour int) DecideRequest {
	return DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		Hour:          hour,
		Resilient:     true,
	}
}

// TestStateSurvivesRestart is the daemon-level crash-recovery contract: a
// second server over the same -state-dir resumes the ladder, so its stale
// rung can replay the first server's last-known-good decision, /readyz shows
// the restore, and /metrics counts it.
func TestStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := stateServer(t, dir)
	ts1 := httptest.NewServer(s1.Handler())
	var dec DecideResponse
	if resp := postJSON(t, ts1.URL+"/v1/decide", resilientReq(7), &dec); resp.StatusCode != 200 {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	if dec.Degraded != "" {
		t.Fatalf("healthy decision degraded: %q", dec.Degraded)
	}
	ts1.Close()
	// Simulate SIGKILL: no CloseState, the WAL alone carries the state.

	s2 := stateServer(t, dir)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.CloseState()

	// The restored ladder serves the stale rung when both solver rungs fail.
	s2.Resilient().InjectSolverFailure(8)
	s2.Resilient().InjectFallbackFailure(8)
	var dec2 DecideResponse
	postJSON(t, ts2.URL+"/v1/decide", resilientReq(8), &dec2)
	if dec2.Degraded != "stale" {
		t.Fatalf("restored ladder degraded to %q, want stale", dec2.Degraded)
	}
	if dec2.Served <= 0 {
		t.Error("restored stale reuse served nothing")
	}

	var ready map[string]any
	getJSON(t, ts2.URL+"/readyz", &ready)
	restore, ok := ready["restore"].(map[string]any)
	if !ok {
		t.Fatalf("/readyz has no restore status: %v", ready)
	}
	if restore["restored"] != true {
		t.Errorf("restore status %v, want restored=true", restore)
	}

	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"billcap_state_restores_total 1",
		"billcap_wal_corruptions_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStateFreshDirReportsNoRestore pins the first-boot shape: state enabled,
// nothing to restore, /readyz says so.
func TestStateFreshDirReportsNoRestore(t *testing.T) {
	s := stateServer(t, t.TempDir())
	defer s.CloseState()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ready map[string]any
	getJSON(t, ts.URL+"/readyz", &ready)
	restore, ok := ready["restore"].(map[string]any)
	if !ok {
		t.Fatalf("/readyz has no restore status: %v", ready)
	}
	if restore["restored"] != false {
		t.Errorf("fresh dir reports restore: %v", restore)
	}
}

// TestStateTimingMetrics: EnableState registers the state timing metrics.
// After 48 committed decides and CloseState, which drains the checkpoint
// writer, /metrics counts 48 WAL appends and the 2 background checkpoints
// they cut, and reports how long the restore took.
func TestStateTimingMetrics(t *testing.T) {
	s := tariffServer(t, 1500, true)
	if _, err := s.EnableState(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for hour := 0; hour < 2*state.CheckpointEvery; hour++ {
		serveBytes(t, h, http.MethodPost, "/v1/decide", resilientReq(hour))
	}
	if err := s.CloseState(); err != nil {
		t.Fatal(err)
	}
	metrics := string(serveBytes(t, h, http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"billcap_state_append_seconds_count 48",
		"billcap_state_checkpoint_seconds_count 2",
		"billcap_state_restore_seconds ",
		"billcap_state_persist_errors_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
