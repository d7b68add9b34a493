package billcap_test

import (
	"math"
	"testing"

	"billcap"
)

func TestQuickstartDecision(t *testing.T) {
	sys, err := billcap.NewSystem(billcap.PaperSites(), billcap.PaperPolicies(billcap.Policy1), billcap.SystemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sys.DecideHour(billcap.HourInput{
		TotalLambda:   1.5e12,
		PremiumLambda: 1.2e12,
		DemandMW:      []float64{170, 190, 150},
		BudgetUSD:     math.Inf(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Step != billcap.StepCostMin {
		t.Errorf("step = %v", dec.Step)
	}
	if dec.Served <= 0 || dec.PredictedCostUSD <= 0 {
		t.Errorf("served %v cost %v", dec.Served, dec.PredictedCostUSD)
	}
	real, err := sys.Realize(dec.Lambdas(), []float64{170, 190, 150})
	if err != nil {
		t.Fatal(err)
	}
	if real.BillUSD() <= 0 {
		t.Errorf("realized bill %v", real.BillUSD())
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	scen, err := billcap.PaperScenario(billcap.Policy1, billcap.TightBudget())
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test speed: one week, pro-rata budget.
	scen.Month = scen.Month.Slice(0, 168)
	scen.MonthlyBudgetUSD = billcap.TightBudget() / 4
	cc, err := billcap.NewCostCapping(scen.DCs, scen.Policies)
	if err != nil {
		t.Fatal(err)
	}
	res, err := billcap.Run(scen, cc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PremiumServiceRate() < 1-1e-9 {
		t.Errorf("premium rate %v", res.PremiumServiceRate())
	}
	mo, err := billcap.NewMinOnly(scen.DCs, scen.Policies, billcap.MinOnlyAvg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := billcap.Run(scen, mo)
	if err != nil {
		t.Fatal(err)
	}
	if rb.OrdinaryServiceRate() < 1-1e-4 {
		t.Errorf("Min-Only ordinary rate %v, want ≈1", rb.OrdinaryServiceRate())
	}
}

func TestBudgetAccessors(t *testing.T) {
	if !math.IsInf(billcap.Uncapped(), 1) {
		t.Error("Uncapped not +Inf")
	}
	pts := billcap.PaperBudgets()
	if len(pts) != 5 {
		t.Fatalf("budget points = %d", len(pts))
	}
	if billcap.TightBudget() >= billcap.AbundantBudget() {
		t.Error("tight budget not below abundant")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Errorf("budget sweep not increasing at %d", i)
		}
	}
}

func TestSyntheticTraceConfig(t *testing.T) {
	cfg := billcap.DefaultTraceConfig()
	cfg.Hours = 48
	tr, err := billcap.SyntheticTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 48 {
		t.Errorf("trace len %d", tr.Len())
	}
}

func TestExtensionFacades(t *testing.T) {
	sites := billcap.PaperHeteroSites()
	if len(sites) != 3 {
		t.Fatalf("hetero sites = %d", len(sites))
	}
	hs, err := billcap.NewSystem(sites, billcap.PaperPolicies(billcap.Policy1), billcap.SystemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hs.MaxThroughput() <= 0 {
		t.Error("hetero capacity not positive")
	}

	dcs := billcap.SyntheticSites(6)
	pols := billcap.SyntheticPolicies(6)
	coord, err := billcap.NewCoordinator(dcs, pols, []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Capacity() <= 0 || len(coord.Groups) != 2 {
		t.Errorf("coordinator capacity %v groups %d", coord.Capacity(), len(coord.Groups))
	}

	tou, err := billcap.NewTimeOfUse(billcap.PaperSites(), billcap.PaperPolicies(billcap.Policy1))
	if err != nil {
		t.Fatal(err)
	}
	if tou.Name() != "TOU (two-price)" {
		t.Errorf("TOU name %q", tou.Name())
	}
}
