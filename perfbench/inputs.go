package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/forecast"
	"billcap/internal/grid"
	"billcap/internal/pricing"
	"billcap/internal/workload"
)

// historyHours is the budgeting history the hour-of-week forecast is fitted
// on: one paper month of four weeks, generated ahead of the decided hours.
const historyHours = 4 * workload.HoursPerWeek

// monthlyBudgetUSD is the paper's tight monthly budget for the three paper
// sites (sim.TightBudget); larger fleets scale it by sites/3.
const monthlyBudgetUSD = 610_000

// premiumFrac is the paper's premium share of arrivals (§VII-C).
const premiumFrac = 0.8

// Tariff engine settings of the paper-month workload: the Xu & Li demand
// charge and one 40 MWh / 15 MW / 0.9 battery per site.
const (
	demandChargeUSDPerMW = 1500
	batCapacityMWh       = 40
	batMaxMW             = 15
	batEfficiency        = 0.9
)

// decideBody is the benchmark's own copy of the POST /v1/decide wire format,
// so the request bytes stay identical whatever the program's types become.
type decideBody struct {
	TotalLambda   float64   `json:"totalLambda"`
	PremiumLambda float64   `json:"premiumLambda"`
	DemandMW      []float64 `json:"demandMW"`
	BudgetUSD     float64   `json:"budgetUSD"`
	Hour          int       `json:"hour"`
	Resilient     bool      `json:"resilient"`
}

// hourInput is one generated hour: what the program receives (body) and what
// the checks need to judge the answer.
type hourInput struct {
	hour           int
	total, premium float64
	demand         []float64
	budget         float64
	body           []byte
	// flash is the number of requests a flash crowd replays through
	// /v1/route/batch right after this hour's decide (route-storm only).
	flash int64
}

// fleet is a workload's program configuration plus its generated hours.
type fleet struct {
	sites    []*dcmodel.Site
	policies []pricing.Policy
	hours    []hourInput
	// audit is each site's load-independent audit model (affine power,
	// SLA limit, cap), re-derived from dcmodel and pricing public data.
	audit []siteModel
}

// siteModel is the per-site physics the checks judge answers against.
type siteModel struct {
	maxLambda, mwPerLambda, idleMW, capMW, slackMW float64
	price                                          func(float64) float64
	meanPrice                                      float64
}

// batterySpecs returns the paper-month battery bank as the program is
// configured with it.
func batterySpecs(n int) []core.BatterySpec {
	specs := make([]core.BatterySpec, n)
	for i := range specs {
		specs[i] = core.BatterySpec{
			CapacityMWh: batCapacityMWh, MaxChargeMW: batMaxMW, MaxDischargeMW: batMaxMW,
			Efficiency: batEfficiency,
		}
	}
	return specs
}

// newFleet generates a workload's inputs from the seed. The seed drives the
// arrival trace (workload.GenConfig.Seed) and the regional demand
// (grid.SyntheticRegions: the grid.PaperRegions series, which sites beyond
// the third reuse with fixed per-cycle offsets). Each hour's budget is the static
// budget.Budgeter share of the hour-of-week forecast fitted on the history,
// with no carry-forward, so no input depends on the program's answers.
func newFleet(w mix, seed int64) (*fleet, error) {
	n := w.sites
	f := &fleet{}
	if n == 3 {
		f.sites = dcmodel.PaperSites()
		f.policies = pricing.PaperPolicies(pricing.Policy1)
	} else {
		f.sites = dcmodel.SyntheticSites(n)
		f.policies = pricing.Synthetic(n)
	}
	for i, dc := range f.sites {
		aff, err := dc.Affine(dcmodel.FullPower)
		if err != nil {
			return nil, err
		}
		maxLam, err := dc.MaxLambda()
		if err != nil {
			return nil, err
		}
		fn := f.policies[i].Fn
		f.audit = append(f.audit, siteModel{
			maxLambda: maxLam, mwPerLambda: aff.A, idleMW: aff.B,
			capMW: dc.PowerCapMW, slackMW: dc.RoundingSlackMW(),
			price: fn.Eval, meanPrice: fn.Mean(),
		})
	}

	cfg := workload.DefaultWikipedia()
	cfg.Seed = seed
	cfg.Hours = historyHours + w.hours
	trace, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	regions, err := grid.SyntheticRegions(n, cfg.Hours, seed)
	if err != nil {
		return nil, err
	}
	hw, err := forecast.FitHourOfWeek(trace.Rates[:historyHours])
	if err != nil {
		return nil, err
	}
	scale := float64(n) / 3
	budgetScale := w.budgetScale
	if budgetScale == 0 {
		budgetScale = 1
	}
	budgeter, err := budget.New(monthlyBudgetUSD*scale*budgetScale, hw.PredictSeries(historyHours))
	if err != nil {
		return nil, err
	}

	// A flash crowd (paper §I) hits one seeded hour in every eight; its
	// replay multiplies the hour's arrivals by 2.1–2.5, past the data
	// plane's drift ratio of 2.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_f1a5))
	flashAt := -1
	for h := 0; h < w.hours; h++ {
		at := historyHours + h
		lambda := trace.At(at) * scale
		premium, _ := workload.Split(lambda, premiumFrac)
		demand := make([]float64, n)
		for i := range demand {
			demand[i] = regions[i].At(at)
		}
		in := hourInput{
			hour: h, total: lambda, premium: premium, demand: demand,
			budget: budgeter.Share(h % historyHours),
		}
		if w.storm {
			if h%8 == 0 {
				flashAt = h + rng.Intn(8)
			}
			peak := 2.1 + 0.4*rng.Float64()
			// Hour 0 is the set-up decide, and the last hours of a pass leave
			// the drift re-solve time to land before the pass is checked.
			if h == flashAt && h > 0 && h < w.hours-8 {
				in.flash = int64(math.Ceil(peak * lambda))
			}
		}
		body, err := json.Marshal(decideBody{
			TotalLambda: in.total, PremiumLambda: in.premium, DemandMW: in.demand,
			BudgetUSD: in.budget, Hour: in.hour, Resilient: true,
		})
		if err != nil {
			return nil, fmt.Errorf("hour %d: %w", h, err)
		}
		in.body = body
		f.hours = append(f.hours, in)
	}
	return f, nil
}
