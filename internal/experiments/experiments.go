package experiments

import (
	"fmt"
	"math"
	"time"

	"billcap/internal/baseline"
	"billcap/internal/battery"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/grid"
	"billcap/internal/hierarchy"
	"billcap/internal/powergrid"
	"billcap/internal/pricing"
	"billcap/internal/sim"
	"billcap/internal/timeseries"
	"billcap/internal/workload"
)

// scenario builds the canonical setup, truncated to the requested number of
// month weeks (≤ 0 or ≥ 4 → the full four-week month). Budgets are scaled
// pro rata when the month is truncated so "tight" stays tight.
func scenario(variant pricing.PolicyVariant, monthlyBudget float64, weeks int) (sim.Config, float64, error) {
	if weeks <= 0 || weeks > 4 {
		weeks = 4
	}
	scaled := monthlyBudget
	if !math.IsInf(monthlyBudget, 1) {
		scaled = monthlyBudget * float64(weeks) / 4
	}
	cfg, err := sim.ShortScenario(variant, scaled, weeks)
	return cfg, scaled, err
}

func strategies(cfg sim.Config) (*sim.CostCapping, *baseline.MinOnly, *baseline.MinOnly, error) {
	cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
	if err != nil {
		return nil, nil, nil, err
	}
	avg, err := baseline.New(cfg.DCs, cfg.Policies, baseline.Avg)
	if err != nil {
		return nil, nil, nil, err
	}
	low, err := baseline.New(cfg.DCs, cfg.Policies, baseline.Low)
	if err != nil {
		return nil, nil, nil, err
	}
	return cc, avg, low, nil
}

// Fig1 reproduces the paper's Figure 1: the locational step pricing
// policies of the three regions.
func Fig1() Result {
	t := Table{
		Title:  "Fig. 1 — Locational pricing policies (Policy 1, $/MWh vs regional load)",
		Header: []string{"region", "segment", "load range (MW)", "price ($/MWh)"},
	}
	for _, p := range pricing.PaperPolicies(pricing.Policy1) {
		for k := 0; k < p.Fn.NumSegments(); k++ {
			lo, hi := p.Fn.SegmentBounds(k)
			hiStr := "inf"
			if !math.IsInf(hi, 1) {
				hiStr = fmt.Sprintf("%.0f", hi)
			}
			t.Rows = append(t.Rows, []string{
				p.Location,
				fmt.Sprintf("%d", k+1),
				fmt.Sprintf("[%.0f, %s)", lo, hiStr),
				fmt.Sprintf("%.2f", p.Fn.Rates()[k]),
			})
		}
	}
	t.Notes = append(t.Notes,
		"location B uses the paper's quoted rates; C and D are reconstructions (see DESIGN.md)")
	return Result{Table: t}
}

// Fig1Derived re-derives Figure 1 from first principles: a DC optimal
// power flow over the PJM five-bus system, swept over the system load, with
// each consumer bus's LMP trace compressed into a step policy. The paper
// (§II) quotes two landmarks from this derivation — a step at 600 MW when
// Brighton hits its capacity and another at ≈712 MW when the Brighton–
// Sundance line binds — both of which must fall out of the sweep.
func Fig1Derived() (Result, error) {
	s := powergrid.PJM5Bus()
	shares := []float64{0, 1.0 / 3, 1.0 / 3, 1.0 / 3, 0}
	fns, err := powergrid.DeriveStepPolicies(s, shares, powergrid.ConsumerBuses(), 1600, 5)
	if err != nil {
		return Result{}, err
	}
	names := []string{"B", "C", "D"}
	t := Table{
		Title:  "Fig. 1 (derived) — LMP step policies from the five-bus DC-OPF",
		Header: []string{"bus", "segment", "system load from (MW)", "LMP ($/MWh)"},
	}
	for ci, fn := range fns {
		thr := append([]float64{0}, fn.Thresholds()...)
		for k, rate := range fn.Rates() {
			t.Rows = append(t.Rows, []string{
				names[ci], fmt.Sprintf("%d", k+1),
				fmt.Sprintf("%.0f", thr[k]), fmt.Sprintf("%.2f", rate),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper landmarks: step at 600 MW (Brighton at capacity) and ≈712 MW (Brighton–Sundance line limit); the sweep reproduces both (605 and 715 MW at 5 MW resolution)",
		"the evaluation scenario uses the calibrated per-region policies of internal/pricing; this derivation shows where such curves come from")
	return Result{Table: t}, nil
}

// Fig3 reproduces Figure 3: hourly electricity cost of Cost Capping vs the
// Min-Only baselines over the evaluated month, uncapped.
func Fig3(weeks int) (Result, error) {
	cfg, _, err := scenario(pricing.Policy1, sim.Uncapped(), weeks)
	if err != nil {
		return Result{}, err
	}
	cc, avg, low, err := strategies(cfg)
	if err != nil {
		return Result{}, err
	}
	series := map[string]timeseries.Series{}
	t := Table{
		Title:  "Fig. 3 — Hourly/monthly electricity cost, Cost Capping vs Min-Only (uncapped)",
		Header: []string{"strategy", "monthly bill", "mean hourly", "max hourly", "savings vs strategy"},
	}
	results, err := sim.RunAll(cfg, cc, avg, low)
	if err != nil {
		return Result{}, err
	}
	ccBill := results[0].TotalBillUSD()
	for i, res := range results {
		bills := res.HourlyBills()
		series[res.Strategy] = bills
		saving := "—"
		if i > 0 {
			saving = pct((res.TotalBillUSD() - ccBill) / res.TotalBillUSD())
		}
		t.Rows = append(t.Rows, []string{
			res.Strategy, usd(res.TotalBillUSD()), usd(bills.Mean()), usd(bills.Max()), saving,
		})
	}
	t.Notes = append(t.Notes, "paper reports 17.9% (Avg) and 33.5% (Low) savings; shape (CC < Avg < Low) is the target")
	return Result{Table: t, Series: series}, nil
}

// Fig4 reproduces Figure 4: monthly bills under Pricing Policies 0–3.
func Fig4(weeks int) (Result, error) {
	t := Table{
		Title:  "Fig. 4 — Monthly electricity bill under Pricing Policies 0–3",
		Header: []string{"policy", "Cost Capping", "Min-Only (Avg)", "Min-Only (Low)"},
	}
	for _, v := range []pricing.PolicyVariant{pricing.Policy0, pricing.Policy1, pricing.Policy2, pricing.Policy3} {
		cfg, _, err := scenario(v, sim.Uncapped(), weeks)
		if err != nil {
			return Result{}, err
		}
		cc, avg, low, err := strategies(cfg)
		if err != nil {
			return Result{}, err
		}
		row := []string{v.String()}
		results, err := sim.RunAll(cfg, cc, avg, low)
		if err != nil {
			return Result{}, err
		}
		for _, res := range results {
			row = append(row, usd(res.TotalBillUSD()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"under Policy 0 (price takers) all strategies should be close; the gap widens with steeper policies")
	return Result{Table: t}, nil
}

// budgetFigure runs Cost Capping under a budget and reports the
// throughput/cost behaviour of Figures 5+6 (abundant) or 7+8 (tight).
func budgetFigure(title string, budget float64, weeks int) (Result, error) {
	cfg, scaled, err := scenario(pricing.Policy1, budget, weeks)
	if err != nil {
		return Result{}, err
	}
	cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(cfg, cc)
	if err != nil {
		return Result{}, err
	}
	series := map[string]timeseries.Series{
		"hourly bill":   res.HourlyBills(),
		"hourly budget": res.HourlyBudgets(),
	}
	arrP := make(timeseries.Series, len(res.Hours))
	arrO := make(timeseries.Series, len(res.Hours))
	srvP := make(timeseries.Series, len(res.Hours))
	srvO := make(timeseries.Series, len(res.Hours))
	for i, h := range res.Hours {
		arrP[i], arrO[i], srvP[i], srvO[i] = h.ArrivedPremium, h.ArrivedOrdinary, h.ServedPremium, h.ServedOrdinary
	}
	series["premium arrivals"] = arrP
	series["ordinary arrivals"] = arrO
	series["premium throughput"] = srvP
	series["ordinary throughput"] = srvO

	zeroOrdinaryHours := 0
	for _, h := range res.Hours {
		if h.ArrivedOrdinary > 0 && h.ServedOrdinary < 1e-6*h.ArrivedOrdinary {
			zeroOrdinaryHours++
		}
	}
	t := Table{
		Title:  title,
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"monthly budget", usd(scaled)},
			{"monthly bill", usd(res.TotalBillUSD())},
			{"budget utilization", pct(res.BudgetUtilization())},
			{"premium service rate", rate(res.PremiumServiceRate())},
			{"ordinary service rate", rate(res.OrdinaryServiceRate())},
			{"hours violating hourly budget", fmt.Sprintf("%d", res.BudgetViolationHours)},
			{"hours with zero ordinary service", fmt.Sprintf("%d", zeroOrdinaryHours)},
			{"hours by step", fmt.Sprintf("%v", res.StepCounts)},
		},
	}
	return Result{Table: t, Series: series}, nil
}

// Fig56 reproduces Figures 5 and 6: behaviour under the abundant budget.
func Fig56(weeks int) (Result, error) {
	return budgetFigure("Figs. 5+6 — Cost Capping under the abundant budget (paper $2.5M)",
		sim.AbundantBudget(), weeks)
}

// Fig78 reproduces Figures 7 and 8: behaviour under the tight budget.
func Fig78(weeks int) (Result, error) {
	return budgetFigure("Figs. 7+8 — Cost Capping under the tight budget (paper $1.5M)",
		sim.TightBudget(), weeks)
}

// Fig9 reproduces Figure 9: cost and throughput of all strategies under the
// tight budget, normalized as in the paper (cost against the budget,
// throughput against arrivals).
func Fig9(weeks int) (Result, error) {
	cfg, scaled, err := scenario(pricing.Policy1, sim.TightBudget(), weeks)
	if err != nil {
		return Result{}, err
	}
	cc, avg, low, err := strategies(cfg)
	if err != nil {
		return Result{}, err
	}
	t := Table{
		Title:  "Fig. 9 — Cost and throughput under the tight budget (paper $1.5M)",
		Header: []string{"strategy", "bill / budget", "premium throughput", "ordinary throughput", "budget utilization"},
	}
	results, err := sim.RunAll(cfg, cc, avg, low)
	if err != nil {
		return Result{}, err
	}
	for _, res := range results {
		t.Rows = append(t.Rows, []string{
			res.Strategy,
			fmt.Sprintf("%.3f", res.TotalBillUSD()/scaled),
			pct(res.PremiumServiceRate()),
			pct(res.OrdinaryServiceRate()),
			pct(res.BudgetUtilization()),
		})
	}
	t.Notes = append(t.Notes,
		"paper: Min-Only exceeds the budget by 23.3% (Avg) and 39.5% (Low); Cost Capping holds 98.5% utilization with 100% premium and ≈80% ordinary throughput")
	return Result{Table: t}, nil
}

// Fig10 reproduces Figure 10: monthly throughput across the budget sweep.
func Fig10(weeks int) (Result, error) {
	t := Table{
		Title:  "Fig. 10 — Monthly throughput vs monthly budget",
		Header: []string{"budget", "paper analog", "premium served", "ordinary served", "bill", "utilization"},
	}
	analogs := []string{"$0.5M", "$1.0M", "$1.5M", "$2.0M", "$2.5M"}
	for i, b := range sim.PaperBudgets() {
		cfg, scaled, err := scenario(pricing.Policy1, b, weeks)
		if err != nil {
			return Result{}, err
		}
		cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
		if err != nil {
			return Result{}, err
		}
		res, err := sim.Run(cfg, cc)
		if err != nil {
			return Result{}, err
		}
		_ = scaled
		t.Rows = append(t.Rows, []string{
			usd(scaled), analogs[i],
			pct(res.PremiumServiceRate()), pct(res.OrdinaryServiceRate()),
			usd(res.TotalBillUSD()), pct(res.BudgetUtilization()),
		})
	}
	t.Notes = append(t.Notes,
		"premium is always 100%; ordinary throughput grows with the budget and reaches 100% at the largest")
	return Result{Table: t}, nil
}

// Solver reproduces the paper's §IV-C solver-latency claim: per-invocation
// MILP time for systems of up to 13 data centers with 5 price levels each.
func Solver(siteCounts []int) (Result, error) {
	if len(siteCounts) == 0 {
		siteCounts = []int{3, 7, 10, 13}
	}
	t := Table{
		Title:  "§IV-C — Cost-minimization MILP latency vs system size",
		Header: []string{"data centers", "price levels", "mean solve (ms)", "max solve (ms)", "mean B&B nodes"},
	}
	for _, n := range siteCounts {
		dcs := dcmodel.SyntheticSites(n)
		policies := pricing.Synthetic(n)
		regions, err := grid.SyntheticRegions(n, 1, 20050601)
		if err != nil {
			return Result{}, err
		}
		sys, err := core.NewSystem(dcs, policies, core.Options{})
		if err != nil {
			return Result{}, err
		}
		demand := make([]float64, n)
		for i := range demand {
			demand[i] = regions[i].At(0)
		}
		lambda := 0.6 * sys.MaxThroughput()
		const trials = 20
		var total, worst time.Duration
		nodes := 0
		for k := 0; k < trials; k++ {
			in := core.HourInput{
				TotalLambda:   lambda * (0.7 + 0.03*float64(k)),
				PremiumLambda: 0,
				DemandMW:      demand,
				BudgetUSD:     math.Inf(1),
			}
			var st core.SolverStats
			start := time.Now()
			if _, err := sys.MinimizeCost(in, in.TotalLambda, &st); err != nil {
				return Result{}, err
			}
			el := time.Since(start)
			total += el
			if el > worst {
				worst = el
			}
			nodes += st.Nodes
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), "5",
			fmt.Sprintf("%.2f", total.Seconds()*1000/trials),
			fmt.Sprintf("%.2f", worst.Seconds()*1000),
			fmt.Sprintf("%d", nodes/trials),
		})
	}
	t.Notes = append(t.Notes, "paper: lp_solve needs at most ~2 ms for 13 data centers and 5 price levels")
	return Result{Table: t}, nil
}

// Robustness sweeps the budgeter's prediction error (paper §IX defers
// "when the workload prediction is inaccurate" to future work): the
// hour-of-week forecast is corrupted with mean-one lognormal error and the
// tight-budget month is replayed.
func Robustness(weeks int) (Result, error) {
	t := Table{
		Title:  "Robustness — Cost Capping under workload-prediction error (tight budget)",
		Header: []string{"prediction error", "premium served", "ordinary served", "bill", "budget utilization", "hourly overruns"},
	}
	for _, relErr := range []float64{0, 0.1, 0.3, 0.5} {
		cfg, _, err := scenario(pricing.Policy1, sim.TightBudget(), weeks)
		if err != nil {
			return Result{}, err
		}
		cfg.PredictionError = relErr
		cfg.PredictionSeed = 42
		cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
		if err != nil {
			return Result{}, err
		}
		res, err := sim.Run(cfg, cc)
		if err != nil {
			return Result{}, err
		}
		t.Rows = append(t.Rows, []string{
			pct(relErr),
			pct(res.PremiumServiceRate()), pct(res.OrdinaryServiceRate()),
			usd(res.TotalBillUSD()), pct(res.BudgetUtilization()),
			fmt.Sprintf("%d", res.BudgetViolationHours),
		})
	}
	t.Notes = append(t.Notes,
		"premium QoS and the monthly cap must hold even with badly wrong forecasts; only ordinary admission degrades")
	return Result{Table: t}, nil
}

// Hetero exercises the heterogeneous-fleet extension (paper §IX): each site
// mixes the three paper server generations and the optimizer dispatches per
// class. Compares the class-aware MILP against a capacity-proportional
// dispatch at several load levels, both billed by the true market.
func Hetero() (Result, error) {
	sites := dcmodel.PaperHeteroSites()
	sys, err := core.NewSystem(sites, pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		return Result{}, err
	}
	demand := []float64{170, 190, 150}
	t := Table{
		Title:  "Extension — heterogeneous fleets (per-class dispatch vs proportional)",
		Header: []string{"load (fleet fraction)", "class-aware bill/h", "proportional bill/h", "saving"},
	}
	cap := sys.MaxThroughput()
	for _, frac := range []float64{0.3, 0.5, 0.7, 0.9} {
		lam := frac * cap
		in := core.HourInput{TotalLambda: lam, DemandMW: demand, BudgetUSD: math.Inf(1)}
		a, err := sys.MinimizeCost(in, lam, nil)
		if err != nil {
			return Result{}, err
		}
		opt, err := sys.Realize(a.Lambdas(), demand)
		if err != nil {
			return Result{}, err
		}
		naive := make([]float64, len(sites))
		for i, st := range sites {
			siteMax, err := st.MaxLambda()
			if err != nil {
				return Result{}, err
			}
			naive[i] = lam * siteMax / cap
		}
		nv, err := sys.Realize(naive, demand)
		if err != nil {
			return Result{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*frac),
			usd(opt.BillUSD()), usd(nv.BillUSD()),
			pct((nv.BillUSD() - opt.BillUSD()) / nv.BillUSD()),
		})
	}
	t.Notes = append(t.Notes,
		"each site mixes the paper's three server generations; the optimizer fills efficient classes first and steers regional prices")
	return Result{Table: t}, nil
}

// Baselines widens Fig. 3's comparison with the related-work family the
// paper discusses (§VIII): a Le-style two-price time-of-use dispatcher
// (refs [32]-[34]) sits between the fully price-blind Min-Only baselines
// and the LMP-aware Cost Capping.
func Baselines(weeks int) (Result, error) {
	cfg, _, err := scenario(pricing.Policy1, sim.Uncapped(), weeks)
	if err != nil {
		return Result{}, err
	}
	cc, avg, low, err := strategies(cfg)
	if err != nil {
		return Result{}, err
	}
	tou, err := baseline.NewTimeOfUse(cfg.DCs, cfg.Policies)
	if err != nil {
		return Result{}, err
	}
	t := Table{
		Title:  "Extension — baseline family (uncapped month, billed at true LMP)",
		Header: []string{"strategy", "price awareness", "monthly bill", "vs Cost Capping"},
	}
	aware := map[string]string{
		"Cost Capping":    "full step policies (price maker)",
		"TOU (two-price)": "on/off-peak tariffs (time only)",
		"Min-Only (Avg)":  "single average price",
		"Min-Only (Low)":  "single lowest price",
	}
	results, err := sim.RunAll(cfg, cc, tou, avg, low)
	if err != nil {
		return Result{}, err
	}
	ccBill := results[0].TotalBillUSD()
	for i, res := range results {
		delta := "—"
		if i > 0 {
			delta = "+" + pct((res.TotalBillUSD()-ccBill)/ccBill)
		}
		t.Rows = append(t.Rows, []string{res.Strategy, aware[res.Strategy], usd(res.TotalBillUSD()), delta})
	}
	return Result{Table: t}, nil
}

// FlashCrowd quantifies the paper's §I motivating scenario: "breaking news
// on major newspaper websites may incur a huge number of accesses in a
// short time and thus lead to unexpectedly high electricity costs". A ×3
// half-day spike is injected into the tight-budget month, with and without
// capping.
func FlashCrowd(weeks int) (Result, error) {
	t := Table{
		Title:  "Motivation — flash crowd under the tight budget (paper §I)",
		Header: []string{"scenario", "bill", "vs budget", "premium served", "ordinary served"},
	}
	type variant struct {
		name   string
		crowd  bool
		budget float64
	}
	// The crowd hits mid-week every week of the truncated month.
	for _, v := range []variant{
		{"calm, capped", false, sim.TightBudget()},
		{"crowd, capped", true, sim.TightBudget()},
		{"crowd, uncapped", true, sim.Uncapped()},
	} {
		cfg, scaled, err := scenario(pricing.Policy1, v.budget, weeks)
		if err != nil {
			return Result{}, err
		}
		if v.crowd {
			month := cfg.Month
			for w := 0; w*168 < month.Len(); w++ {
				month = month.Inject(workload.FlashCrowd{StartHour: w*168 + 58, Duration: 12, Peak: 3})
			}
			cfg.Month = month
		}
		cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
		if err != nil {
			return Result{}, err
		}
		res, err := sim.Run(cfg, cc)
		if err != nil {
			return Result{}, err
		}
		vsBudget := "—"
		if !math.IsInf(scaled, 1) {
			vsBudget = pct(res.TotalBillUSD() / scaled)
		}
		t.Rows = append(t.Rows, []string{
			v.name, usd(res.TotalBillUSD()), vsBudget,
			pct(res.PremiumServiceRate()), pct(res.OrdinaryServiceRate()),
		})
	}
	t.Notes = append(t.Notes,
		"capping absorbs the crowd by shedding ordinary admissions; uncapped, the same crowd simply inflates the bill")
	return Result{Table: t}, nil
}

// Battery exercises the stored-energy extension (paper §VIII, refs [37],
// [38]): each site gets a battery whose threshold-arbitrage operator buys
// energy in cheap price segments and serves load from the store in dear
// ones, on top of the Cost Capping dispatch. Reports the monthly bill
// across battery sizes.
func Battery(weeks int) (Result, error) {
	cfg, _, err := scenario(pricing.Policy1, sim.Uncapped(), weeks)
	if err != nil {
		return Result{}, err
	}
	cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(cfg, cc)
	if err != nil {
		return Result{}, err
	}
	t := Table{
		Title:  "Extension — stored energy: monthly bill vs per-site battery size",
		Header: []string{"battery per site", "monthly bill", "saving vs no battery"},
	}
	base := res.TotalCostUSD
	for _, capMWh := range []float64{0, 10, 50, 100} {
		bill := 0.0
		ops := make([]*battery.Operator, len(cfg.DCs))
		for i, dc := range cfg.DCs {
			b, err := battery.New(capMWh, capMWh/4, capMWh/4, 0.85)
			if err != nil {
				return Result{}, err
			}
			ops[i] = battery.NewOperator(b, cfg.Policies[i], dc.PowerCapMW)
		}
		for _, h := range res.Hours {
			for i := range cfg.DCs {
				grid, price := ops[i].Step(h.SitePowerMW[i], cfg.Demand[i].At(h.Hour))
				bill += price * grid
			}
		}
		saving := "—"
		if capMWh > 0 {
			saving = pct((base - bill) / base)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f MWh", capMWh), usd(bill), saving,
		})
	}
	t.Notes = append(t.Notes,
		"the operator never charges across a price-step boundary or above the site cap — stored energy obeys price-maker rules too",
		"savings are small by design: price-maker-aware dispatch already flattens the realized price series, leaving little spread for storage to arbitrage (refs [37][38] measured against price-taking dispatch)")
	return Result{Table: t}, nil
}

// Tariff exercises the tariff engine end to end (DESIGN.md §13): the same
// uncapped month is billed under progressively richer tariffs — plain energy
// charges, energy + a demand charge on the billing-period peak, and the full
// stack with per-site batteries inside the MILP and a two-settlement market
// position. Each tariff-aware dispatch is compared against a tariff-blind
// dispatch (the same optimizer with the extras hidden) billed under the same
// tariff, isolating what tariff awareness is worth.
func Tariff(weeks int) (Result, error) {
	const demandCharge = 1500.0 // $/MW-month
	bat := core.BatterySpec{
		CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15,
		Efficiency: 0.9, SoCMWh: 20,
	}
	type variant struct {
		name                string
		dc, bats, twoSettle bool
	}
	variants := []variant{
		{"energy only", false, false, false},
		{"+ demand charge", true, false, false},
		{"+ demand charge + battery", true, true, false},
		{"+ demand charge + battery + two-settlement", true, true, true},
	}
	t := Table{
		Title:  "Extension — tariff engine: demand charges, storage and two-settlement (uncapped month)",
		Header: []string{"tariff", "aware bill", "blind bill", "aware saving", "energy", "demand charge", "fleet peak (MW)"},
	}
	for _, v := range variants {
		cfg, _, err := scenario(pricing.Policy1, sim.Uncapped(), weeks)
		if err != nil {
			return Result{}, err
		}
		if v.dc {
			cfg.DemandChargeUSDPerMWMonth = demandCharge
		}
		if v.bats {
			cfg.Batteries = make([]core.BatterySpec, len(cfg.DCs))
			for i := range cfg.Batteries {
				cfg.Batteries[i] = bat
			}
		}
		if v.twoSettle {
			cfg.TwoSettlement = true
			cfg.RTSeed = 20120101 // deterministic RT price draw
		}
		cc, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
		if err != nil {
			return Result{}, err
		}
		aware, err := sim.Run(cfg, cc)
		if err != nil {
			return Result{}, err
		}
		blindBill, saving := "—", "—"
		energy, demand, peakStr := usd(aware.TotalBillUSD()), "—", "—"
		if v.dc || v.bats || v.twoSettle {
			ccBlind, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
			if err != nil {
				return Result{}, err
			}
			blind, err := sim.Run(cfg, sim.TariffBlind(ccBlind))
			if err != nil {
				return Result{}, err
			}
			blindBill = usd(blind.TotalBillUSD())
			saving = pct((blind.TotalBillUSD() - aware.TotalBillUSD()) / blind.TotalBillUSD())
			peak := 0.0
			for _, p := range aware.PeakMW {
				peak += p
			}
			energy = usd(aware.TotalEnergyUSD)
			demand = usd(aware.TotalDemandUSD)
			peakStr = fmt.Sprintf("%.1f", peak)
		}
		t.Rows = append(t.Rows, []string{
			v.name, usd(aware.TotalBillUSD()), blindBill, saving,
			energy, demand, peakStr,
		})
	}
	t.Notes = append(t.Notes,
		"aware and blind run the same optimizer under the same tariff; blind dispatches as if the demand charge, batteries and market position did not exist",
		"the demand charge bills each site's billing-period peak metered draw; batteries let the MILP shave that peak and arbitrage price steps",
		"two-settlement adds a sunk day-ahead position settled at seeded real-time prices, so aware and blind differ only through dispatch")
	return Result{Table: t}, nil
}

// Hierarchy exercises the two-level capping extension (paper §IX): a
// coordinator splits load and budget across groups of data centers, each
// with its own local capper. Reports the cost gap against the centralized
// optimum and the per-hour decision latency of both, at growing fleet
// sizes.
func Hierarchy() (Result, error) {
	t := Table{
		Title:  "Extension — hierarchical capping vs centralized",
		Header: []string{"sites", "groups", "central cost/h", "hier cost/h", "gap", "central ms", "hier ms"},
	}
	for _, n := range []int{6, 9, 12} {
		dcs := dcmodel.SyntheticSites(n)
		pols := pricing.Synthetic(n)
		regions, err := grid.SyntheticRegions(n, 1, 7)
		if err != nil {
			return Result{}, err
		}
		demand := make([]float64, n)
		for i := range demand {
			demand[i] = regions[i].At(0)
		}
		central, err := core.NewSystem(dcs, pols, core.Options{})
		if err != nil {
			return Result{}, err
		}
		sizes := make([]int, n/3)
		for i := range sizes {
			sizes[i] = 3
		}
		coord, err := hierarchy.New(dcs, pols, sizes)
		if err != nil {
			return Result{}, err
		}
		lam := 0.65 * coord.Capacity()
		in := core.HourInput{TotalLambda: lam, PremiumLambda: 0.8 * lam, DemandMW: demand, BudgetUSD: math.Inf(1)}

		start := time.Now()
		cd, err := central.DecideHour(in)
		if err != nil {
			return Result{}, err
		}
		centralMS := time.Since(start).Seconds() * 1000

		start = time.Now()
		hd, err := coord.DecideHour(in)
		if err != nil {
			return Result{}, err
		}
		hierMS := time.Since(start).Seconds() * 1000

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(sizes)),
			usd(cd.PredictedCostUSD), usd(hd.PredictedCostUSD),
			pct((hd.PredictedCostUSD - cd.PredictedCostUSD) / cd.PredictedCostUSD),
			fmt.Sprintf("%.1f", centralMS), fmt.Sprintf("%.1f", hierMS),
		})
	}
	t.Notes = append(t.Notes,
		"the coordinator samples each group's cost curve and splits load by marginal cost; groups solve small MILPs independently (parallelizable)")
	return Result{Table: t}, nil
}

// Ablation quantifies the value of the paper's two modeling choices by
// knocking each out of the Cost Capping optimizer: A1 prices only server
// power (no cooling/network), A2 is a price taker (flat average price) with
// the full power model. Both are billed by the true market.
func Ablation(weeks int) (Result, error) {
	cfg, _, err := scenario(pricing.Policy1, sim.Uncapped(), weeks)
	if err != nil {
		return Result{}, err
	}
	full, err := sim.NewCostCapping(cfg.DCs, cfg.Policies)
	if err != nil {
		return Result{}, err
	}
	a1, err := sim.NewCostCappingVariant("A1: server-only power model", cfg.DCs, cfg.Policies,
		core.Options{Scope: dcmodel.ServerOnly, PriceView: core.ViewLMP})
	if err != nil {
		return Result{}, err
	}
	a2, err := sim.NewCostCappingVariant("A2: price-taker view", cfg.DCs, cfg.Policies,
		core.Options{Scope: dcmodel.FullPower, PriceView: core.ViewFlatAvg})
	if err != nil {
		return Result{}, err
	}
	t := Table{
		Title:  "Ablation — value of the paper's modeling choices (uncapped month)",
		Header: []string{"optimizer", "monthly bill", "overhead vs full model"},
	}
	var fullBill float64
	for _, d := range []sim.Decider{full, a1, a2} {
		res, err := sim.Run(cfg, d)
		if err != nil {
			return Result{}, err
		}
		over := "—"
		if d == full {
			fullBill = res.TotalBillUSD()
		} else {
			over = pct((res.TotalBillUSD() - fullBill) / fullBill)
		}
		t.Rows = append(t.Rows, []string{res.Strategy, usd(res.TotalBillUSD()), over})
	}
	return Result{Table: t}, nil
}
