package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// FuzzDecide posts arbitrary /v1/decide bodies, made resilient with a
// bounded timeout, to a plain server and to one holding a tariff position.
// The ladder must answer every request: 200 with site loads that sum to the
// served load and serve no more than arrived, 400 for a malformed request,
// or 504 for an expired deadline — never a 500 or a hang.
func FuzzDecide(f *testing.F) {
	budget := func(v float64) *float64 { return &v }
	seeds := []DecideRequest{
		// A capped hour.
		{TotalLambda: 1.5e12, PremiumLambda: 1.2e12, DemandMW: []float64{170, 190, 150}, BudgetUSD: budget(900)},
		// A down-site hour.
		{Hour: 3, TotalLambda: 1e12, PremiumLambda: 5e11, DemandMW: []float64{170, 190, 150}, Down: []bool{false, true, false}},
		// A demand-charge and battery hour.
		{TotalLambda: 1.2e12, PremiumLambda: 6e11, DemandMW: []float64{170, 190, 150}, BudgetUSD: budget(2000),
			DemandChargeUSDPerMW: 1500, PeakMW: []float64{10, 10, 10}, Batteries: tariffSpecs(3)},
		// A two-settlement hour.
		{TotalLambda: 1.2e12, PremiumLambda: 6e11, DemandMW: []float64{170, 190, 150},
			RTPriceUSDPerMWh: []float64{40, 55, 30}, CommitMW: []float64{20, 10, 15}},
	}
	for _, r := range seeds {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
		f.Add(b, true)
	}
	plain, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	tariff, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := tariff.EnableTariff(1500, tariffSpecs(3)); err != nil {
		f.Fatal(err)
	}
	handlers := map[bool]http.Handler{false: plain.Handler(), true: tariff.Handler()}

	f.Fuzz(func(t *testing.T, body []byte, onTariff bool) {
		var req DecideRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		req.Resilient = true
		if !(req.TimeoutMS > 0 && req.TimeoutMS <= 200) {
			req.TimeoutMS = 200
		}
		buf, err := json.Marshal(req)
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		handlers[onTariff].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(buf)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for %s: %s", rec.Code, buf, rec.Body)
		}
		var dec DecideResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &dec); err != nil {
			t.Fatalf("undecodable answer %s: %v", rec.Body, err)
		}
		sum := 0.0
		for _, s := range dec.Sites {
			sum += s.Lambda
		}
		if math.Abs(sum-dec.Served) > 1e-9*(1+dec.Served) {
			t.Fatalf("site loads sum to %v, served %v for %s", sum, dec.Served, buf)
		}
		if dec.Served > math.Max(0, req.TotalLambda)*(1+1e-9) {
			t.Fatalf("served %v of %v arrivals for %s", dec.Served, req.TotalLambda, buf)
		}
	})
}
