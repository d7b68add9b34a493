package api

import (
	"errors"
	"fmt"
	"net/http"

	"billcap/internal/controller"
	"billcap/internal/core"
)

// EnableTariff switches the server's billing model beyond plain energy
// charges: a demand charge at the given $/MW-month rate (0 disables that
// component) and optional per-site batteries (nil, or one spec per site; a
// zero-capacity spec means no battery at that site). Call it before
// EnableState, which restores the position; called after, it is an error.
func (s *Server) EnableTariff(demandChargeUSDPerMWMonth float64, batteries []core.BatterySpec) error {
	if s.journal != nil {
		return errors.New("api: EnableTariff after EnableState: the state directory's position would not be restored")
	}
	pos, err := controller.NewPosition(demandChargeUSDPerMWMonth, s.policies, batteries)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	s.pos = pos
	s.peakGauge = s.reg.GaugeVec("billcap_tariff_peak_mw",
		"Billing-period peak metered draw per site (the demand-charge ledger).", "site")
	s.socGauge = s.reg.GaugeVec("billcap_tariff_battery_soc_mwh",
		"Battery state of charge per site.", "site")
	s.reg.Gauge("billcap_tariff_demand_charge_usd_per_mw_month",
		"Configured demand charge rate.").Set(demandChargeUSDPerMWMonth)
	s.handle("/v1/tariff", s.handleTariff)
	return nil
}

// publishTariff sets the tariff gauges from the position: the peaks under
// a positive demand charge, the charge of every site with a battery.
func (s *Server) publishTariff() {
	var pos core.HourInput
	s.pos.Attach(&pos)
	for i, dc := range s.sites {
		if pos.PeakMW != nil {
			s.peakGauge.With(dc.Name).Set(pos.PeakMW[i])
		}
		if pos.Batteries != nil && pos.Batteries[i].CapacityMWh > 0 {
			s.socGauge.With(dc.Name).Set(pos.Batteries[i].SoCMWh)
		}
	}
}

// TariffSite is one site's row in GET /v1/tariff.
type TariffSite struct {
	Site   string  `json:"site"`
	PeakMW float64 `json:"peakMW"`
	// Battery fields are zero when the site has no battery.
	BatCapacityMWh float64 `json:"batCapacityMWh,omitempty"`
	BatSoCMWh      float64 `json:"batSoCMWh,omitempty"`
	BatValueUSD    float64 `json:"batValueUSDPerMWh,omitempty"`
}

// TariffResponse is the server's billing position.
type TariffResponse struct {
	DemandChargeUSDPerMWMonth float64      `json:"demandChargeUSDPerMWMonth"`
	DemandChargeSoFarUSD      float64      `json:"demandChargeSoFarUSD"`
	Sites                     []TariffSite `json:"sites"`
}

// handleTariff serves the billing position: the demand-charge ledger and the
// battery bank. Registered only when EnableTariff ran.
func (s *Server) handleTariff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	var pos core.HourInput
	s.pos.Attach(&pos)
	resp := TariffResponse{DemandChargeUSDPerMWMonth: pos.DemandChargeUSDPerMW}
	for i, dc := range s.sites {
		row := TariffSite{Site: dc.Name}
		if pos.PeakMW != nil {
			row.PeakMW = pos.PeakMW[i]
		}
		if pos.Batteries != nil {
			b := pos.Batteries[i]
			row.BatCapacityMWh, row.BatSoCMWh, row.BatValueUSD = b.CapacityMWh, b.SoCMWh, b.ValueUSDPerMWh
		}
		resp.Sites = append(resp.Sites, row)
		resp.DemandChargeSoFarUSD += resp.DemandChargeUSDPerMWMonth * row.PeakMW
	}
	writeJSON(w, http.StatusOK, resp)
}
