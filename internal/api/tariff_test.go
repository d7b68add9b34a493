package api

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

func tariffSpecs(n int) []core.BatterySpec {
	specs := make([]core.BatterySpec, n)
	for i := range specs {
		specs[i] = core.BatterySpec{
			CapacityMWh:    40,
			MaxChargeMW:    15,
			MaxDischargeMW: 15,
			Efficiency:     0.9,
			SoCMWh:         20,
		}
	}
	return specs
}

func tariffServer(t *testing.T, rate float64, batteries bool) *Server {
	t.Helper()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []core.BatterySpec
	if batteries {
		specs = tariffSpecs(len(dcmodel.PaperSites()))
	}
	if err := s.EnableTariff(rate, specs); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTariffEndpointAndCommit pins the server-held billing position: a
// served decision ratchets the demand-charge ledger and moves real battery
// energy, both visible on GET /v1/tariff; an override (what-if) request
// leaves the position untouched.
func TestTariffEndpointAndCommit(t *testing.T) {
	s := tariffServer(t, 1000, true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var pos TariffResponse
	if resp := getJSON(t, ts.URL+"/v1/tariff", &pos); resp.StatusCode != http.StatusOK {
		t.Fatalf("tariff: %d", resp.StatusCode)
	}
	if pos.DemandChargeUSDPerMWMonth != 1000 || len(pos.Sites) != 3 {
		t.Fatalf("position = %+v", pos)
	}
	for _, row := range pos.Sites {
		if row.PeakMW != 0 {
			t.Errorf("site %s peak %v before any decision", row.Site, row.PeakMW)
		}
		if row.BatCapacityMWh != 40 || row.BatSoCMWh != 20 {
			t.Errorf("site %s battery %+v", row.Site, row)
		}
	}

	req := DecideRequest{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
	}
	var dec DecideResponse
	if resp := postJSON(t, ts.URL+"/v1/decide", req, &dec); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	if dec.DemandChargeUSD <= 0 {
		t.Errorf("decision carries no demand charge: %+v", dec)
	}

	var after TariffResponse
	getJSON(t, ts.URL+"/v1/tariff", &after)
	sum := 0.0
	for i, row := range after.Sites {
		if math.Abs(row.PeakMW-dec.Sites[i].GridMW) > 1e-9 {
			t.Errorf("site %s ledger %v, decision grid %v", row.Site, row.PeakMW, dec.Sites[i].GridMW)
		}
		sum += row.PeakMW
	}
	if sum <= 0 {
		t.Fatal("ledger never ratcheted")
	}
	if after.DemandChargeSoFarUSD <= 0 {
		t.Errorf("demand charge so far = %v", after.DemandChargeSoFarUSD)
	}

	// A what-if request (explicit ledger override) must not move the position.
	what := req
	what.PeakMW = []float64{500, 500, 500}
	var whatDec DecideResponse
	postJSON(t, ts.URL+"/v1/decide", what, &whatDec)
	if whatDec.DemandChargeUSD != 0 {
		t.Errorf("grid below the 500 MW override still billed %v", whatDec.DemandChargeUSD)
	}
	var again TariffResponse
	getJSON(t, ts.URL+"/v1/tariff", &again)
	for i, row := range again.Sites {
		if row.PeakMW != after.Sites[i].PeakMW {
			t.Errorf("what-if moved the ledger: %v -> %v", after.Sites[i].PeakMW, row.PeakMW)
		}
	}

	// Batch is always what-if: same ledger after a batch decide.
	batch := BatchDecideRequest{Hours: []DecideRequest{req, req}}
	var bresp BatchDecideResponse
	if resp := postJSON(t, ts.URL+"/v1/decide/batch", batch, &bresp); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/tariff", &again)
	for i, row := range again.Sites {
		if row.PeakMW != after.Sites[i].PeakMW {
			t.Errorf("batch moved the ledger: %v -> %v", after.Sites[i].PeakMW, row.PeakMW)
		}
	}
}

// TestTariffStateSurvivesRestart extends the crash-recovery contract to the
// billing position: the peak ledger and battery charge ride the WAL, so a
// restarted server bills demand charges against the same month-to-date peak.
func TestTariffStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	boot := func() *Server {
		s := tariffServer(t, 1500, true)
		if _, err := s.EnableState(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := boot()
	ts1 := httptest.NewServer(s1.Handler())
	var dec DecideResponse
	if resp := postJSON(t, ts1.URL+"/v1/decide", resilientReq(3), &dec); resp.StatusCode != 200 {
		t.Fatalf("decide: %d", resp.StatusCode)
	}
	var pos1 TariffResponse
	getJSON(t, ts1.URL+"/v1/tariff", &pos1)
	ts1.Close()
	// Simulate SIGKILL: no CloseState, the WAL alone carries the position.

	s2 := boot()
	defer s2.CloseState()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var pos2 TariffResponse
	getJSON(t, ts2.URL+"/v1/tariff", &pos2)
	for i, row := range pos2.Sites {
		if row.PeakMW != pos1.Sites[i].PeakMW {
			t.Errorf("site %s restored peak %v, want %v", row.Site, row.PeakMW, pos1.Sites[i].PeakMW)
		}
		if math.Abs(row.BatSoCMWh-pos1.Sites[i].BatSoCMWh) > 1e-9 {
			t.Errorf("site %s restored SoC %v, want %v", row.Site, row.BatSoCMWh, pos1.Sites[i].BatSoCMWh)
		}
	}
}

// TestEnableTariffValidates pins the constructor's input checks.
func TestEnableTariffValidates(t *testing.T) {
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTariff(-1, nil); err == nil {
		t.Error("negative demand charge accepted")
	}
	if err := s.EnableTariff(math.NaN(), nil); err == nil {
		t.Error("NaN demand charge accepted")
	}
	if err := s.EnableTariff(0, tariffSpecs(2)); err == nil {
		t.Error("2 battery specs for 3 sites accepted")
	}
	bad := tariffSpecs(3)
	bad[1].Efficiency = 1.5
	if err := s.EnableTariff(0, bad); err == nil {
		t.Error("efficiency 1.5 accepted")
	}
}

// TestEnableTariffRejectsUndecidableBatteries: a battery spec the hour's
// validation rejects must not configure the position. EnableTariff used to
// accept a NaN efficiency (capperd -battery 40:15:NaN among others), after
// which every /v1/decide, resilient or not, answered 400 "battery
// efficiency NaN at site 0": the daemon stayed up but could never decide.
// Each spec here fails EnableTariff and the hour's validation alike: both
// keep one rule (core.BatterySpec.Validate).
func TestEnableTariffRejectsUndecidableBatteries(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*core.BatterySpec){
		"NaN efficiency":   func(b *core.BatterySpec) { b.Efficiency = nan },
		"NaN capacity":     func(b *core.BatterySpec) { b.CapacityMWh = nan },
		"+Inf capacity":    func(b *core.BatterySpec) { b.CapacityMWh = inf },
		"NaN charge rate":  func(b *core.BatterySpec) { b.MaxChargeMW = nan },
		"+Inf rates":       func(b *core.BatterySpec) { b.MaxChargeMW, b.MaxDischargeMW = inf, inf },
		"NaN charge":       func(b *core.BatterySpec) { b.SoCMWh = nan },
		"charge over full": func(b *core.BatterySpec) { b.SoCMWh = 41 },
		"negative value":   func(b *core.BatterySpec) { b.ValueUSDPerMWh = -1 },
		"+Inf value":       func(b *core.BatterySpec) { b.ValueUSDPerMWh = inf },
	} {
		specs := tariffSpecs(3)
		mutate(&specs[0])
		s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableTariff(0, specs); err == nil {
			t.Errorf("%s: EnableTariff accepted %+v", name, specs[0])
		}
		if err := s.sys.ValidateInput(core.HourInput{
			TotalLambda: 1e12, PremiumLambda: 5e11, DemandMW: []float64{170, 190, 150},
			BudgetUSD: inf, Batteries: specs,
		}); err == nil {
			t.Errorf("%s: the hour's validation accepted %+v", name, specs[0])
		}
	}
}
