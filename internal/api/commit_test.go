package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// TestNonResilientCommitSurvivesRestart: a committed decide moves the
// batteries and the peak ledger whether or not it ran the ladder, so it is
// journaled either way. A restart after a non-resilient hour must bring back
// the position that hour left, not the one before it: a lost peak would
// bill the month's demand charge a second time.
func TestNonResilientCommitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *Server {
		s := tariffServer(t, 1500, true)
		if _, err := s.EnableState(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := boot()
	h1 := s1.Handler()
	serveBytes(t, h1, http.MethodPost, "/v1/decide", resilientReq(0))
	req := resilientReq(1)
	req.Resilient = false
	req.TotalLambda *= 1.6
	req.PremiumLambda *= 1.6
	serveBytes(t, h1, http.MethodPost, "/v1/decide", req)
	var served TariffResponse
	getTariff(t, h1, &served)
	// Simulate SIGKILL: no CloseState.

	s2 := boot()
	defer s2.CloseState()
	var restored TariffResponse
	getTariff(t, s2.Handler(), &restored)
	for i, row := range restored.Sites {
		want := served.Sites[i]
		if row.PeakMW != want.PeakMW {
			t.Errorf("site %s restored peak %v MW, served %v MW", row.Site, row.PeakMW, want.PeakMW)
		}
		if math.Abs(row.BatSoCMWh-want.BatSoCMWh) > 1e-9 {
			t.Errorf("site %s restored charge %v MWh, served %v MWh", row.Site, row.BatSoCMWh, want.BatSoCMWh)
		}
	}
}

// TestConcurrentCommitsPlanFromCommittedCharge: committed decides run one at
// a time, each planned from the charge the previous one left. Four at once
// must together discharge no more than each store held plus what they
// charged into it (at the round-trip efficiency).
func TestConcurrentCommitsPlanFromCommittedCharge(t *testing.T) {
	specs := tariffSpecs(3)
	for trial := 0; trial < 100; trial++ {
		s := tariffServer(t, 1500, true)
		if _, err := s.EnableState(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		answers := make([]DecideResponse, 4)
		var wg sync.WaitGroup
		for hour := range answers {
			wg.Add(1)
			go func(hour int) {
				defer wg.Done()
				req := resilientReq(hour)
				req.DemandMW = []float64{400, 400, 400}
				rec := serve(h, http.MethodPost, "/v1/decide", req)
				if rec.Code != http.StatusOK {
					t.Errorf("hour %d: status %d: %s", hour, rec.Code, rec.Body.Bytes())
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &answers[hour]); err != nil {
					t.Error(err)
				}
			}(hour)
		}
		wg.Wait()
		if err := s.CloseState(); err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			var dis, chg float64
			for _, a := range answers {
				if i < len(a.Sites) {
					dis += a.Sites[i].DischargeMW
					chg += a.Sites[i].ChargeMW
				}
			}
			if limit := spec.SoCMWh + spec.Efficiency*chg; dis > limit+1e-6 {
				t.Fatalf("trial %d site %d: answers discharge %v MWh from %v MWh stored plus %v MWh charged",
					trial, i, dis, spec.SoCMWh, chg)
			}
		}
	}
}

// TestEnableTariffAfterEnableStateFails: the journal restores the position
// it was opened with, so a tariff enabled after it would start every
// restart from an empty ledger while the WAL holds the month's peaks.
func TestEnableTariffAfterEnableStateFails(t *testing.T) {
	s := stateServer(t, t.TempDir())
	defer s.CloseState()
	if err := s.EnableTariff(1500, tariffSpecs(3)); err == nil {
		t.Fatal("EnableTariff after EnableState accepted")
	}
}

// TestResilientWhatIfSurvivesRestart: a resilient decide moves the ladder
// even when it poses its own peaks, so it is journaled like any other. On a
// server without a position such a request commits no position at all; on
// a tariff server it is a what-if and leaves the position where it was.
func TestResilientWhatIfSurvivesRestart(t *testing.T) {
	for _, tariff := range []bool{false, true} {
		dir := t.TempDir()
		boot := func() *Server {
			s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tariff {
				if err := s.EnableTariff(1500, tariffSpecs(3)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.EnableState(dir); err != nil {
				t.Fatal(err)
			}
			return s
		}

		req := resilientReq(7)
		req.DemandChargeUSDPerMW = 1500
		req.PeakMW = []float64{60, 60, 60}
		serveBytes(t, boot().Handler(), http.MethodPost, "/v1/decide", req)
		// Simulate SIGKILL: no CloseState.

		s2 := boot()
		h2 := s2.Handler()
		if tariff {
			var restored TariffResponse
			getTariff(t, h2, &restored)
			for _, row := range restored.Sites {
				if row.PeakMW != 0 || row.BatSoCMWh != 20 {
					t.Errorf("site %s: what-if left peak %v MW, charge %v MWh; want 0 and 20", row.Site, row.PeakMW, row.BatSoCMWh)
				}
			}
		}
		// The restored ladder serves the stale rung when both solver rungs fail.
		s2.Resilient().InjectSolverFailure(8)
		s2.Resilient().InjectFallbackFailure(8)
		var dec DecideResponse
		if err := json.Unmarshal(serveBytes(t, h2, http.MethodPost, "/v1/decide", resilientReq(8)), &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Degraded != "stale" {
			t.Errorf("tariff=%v: restored ladder degraded to %q, want stale", tariff, dec.Degraded)
		}
		if err := s2.CloseState(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecideTimeoutCoversLockWait: a committed decide queued behind the hour
// lock spends its TimeoutMS budget while it waits, so once the lock frees it
// answers from a cheaper rung instead of starting a full solve late.
func TestDecideTimeoutCoversLockWait(t *testing.T) {
	s := tariffServer(t, 1500, true)
	h := s.Handler()
	req := resilientReq(0)
	req.TimeoutMS = 1
	s.hourMu.Lock()
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serve(h, http.MethodPost, "/v1/decide", req) }()
	time.Sleep(200 * time.Millisecond)
	s.hourMu.Unlock()
	rec := <-done
	var dec DecideResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dec); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("status %d (%v): %s", rec.Code, err, rec.Body.Bytes())
	}
	if dec.Degraded != "fallback" {
		t.Errorf("decide that waited out its budget degraded to %q, want fallback", dec.Degraded)
	}
}

// getTariff reads GET /v1/tariff.
func getTariff(t *testing.T, h http.Handler, out *TariffResponse) {
	t.Helper()
	if err := json.Unmarshal(serveBytes(t, h, http.MethodGet, "/v1/tariff", nil), out); err != nil {
		t.Fatal(err)
	}
}
