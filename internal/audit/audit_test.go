package audit

import (
	"math"
	"strings"
	"testing"
)

// tariff is a two-band step price: $50 below 10 MW total draw, $80 at or
// above.
func tariff(totalMW float64) float64 {
	if totalMW < 10 {
		return 50
	}
	return 80
}

func oneSite() []Site {
	return []Site{{
		MaxLambda:   100,
		MWPerLambda: 0.05,
		IdleMW:      1,
		PowerCapMW:  8,
		SlackMW:     0.01,
		DemandMW:    2,
		Price:       tariff,
	}}
}

// claimFor derives an internally consistent claim from a lambda.
func claimFor(s Site, lambda float64) Claim {
	p := s.MWPerLambda*lambda + s.IdleMW
	rate := s.Price(s.DemandMW + p)
	return Claim{Lambda: lambda, PowerMW: p, Rate: rate, CostUSD: rate * p, On: true}
}

func TestCheckAcceptsConsistentClaim(t *testing.T) {
	sites := oneSite()
	c := claimFor(sites[0], 60)
	in := Input{TotalLambda: 60, BudgetUSD: 1000, ServeAll: true}
	if err := Check(sites, []Claim{c}, in); err != nil {
		t.Fatalf("consistent claim rejected: %v", err)
	}
}

func TestCheckRejections(t *testing.T) {
	sites := oneSite()
	good := claimFor(sites[0], 60)
	in := Input{TotalLambda: 60, BudgetUSD: 1000, ServeAll: true}

	cases := []struct {
		name   string
		mutate func(*Claim, *[]Site, *Input)
		want   string
	}{
		{"over SLA limit", func(c *Claim, _ *[]Site, in *Input) {
			*c = claimFor(oneSite()[0], 150)
			in.TotalLambda = 150
		}, "SLA limit"},
		{"power model mismatch", func(c *Claim, _ *[]Site, _ *Input) {
			c.PowerMW *= 0.5
		}, "model says"},
		{"over power cap", func(c *Claim, s *[]Site, _ *Input) {
			(*s)[0].PowerCapMW = 1
		}, "supplier cap"},
		{"wrong tariff band", func(c *Claim, _ *[]Site, _ *Input) {
			c.Rate = 999
			c.CostUSD = c.Rate * c.PowerMW
		}, "tariff says"},
		{"cost not rate times power", func(c *Claim, _ *[]Site, _ *Input) {
			c.CostUSD *= 2
		}, "tariff re-derivation"},
		{"off but loaded", func(c *Claim, _ *[]Site, _ *Input) {
			c.On = false
		}, "off but carries"},
		{"down but loaded", func(_ *Claim, s *[]Site, _ *Input) {
			(*s)[0].Down = true
		}, "while down"},
		{"NaN power", func(c *Claim, _ *[]Site, _ *Input) {
			c.PowerMW = math.NaN()
		}, "non-finite"},
		{"negative lambda", func(c *Claim, _ *[]Site, _ *Input) {
			c.Lambda = -1
		}, "negative"},
		{"over budget", func(_ *Claim, _ *[]Site, in *Input) {
			in.BudgetUSD = 1
		}, "over budget"},
		{"serve-all shortfall", func(_ *Claim, _ *[]Site, in *Input) {
			in.TotalLambda = 90
		}, "arrivals"},
		{"served exceeds arrivals", func(_ *Claim, _ *[]Site, in *Input) {
			in.TotalLambda = 10
			in.ServeAll = false
		}, "exceeds arrivals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s, i := good, oneSite(), in
			tc.mutate(&c, &s, &i)
			err := Check(s, []Claim{c}, i)
			if err == nil {
				t.Fatal("violation accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckArityMismatch(t *testing.T) {
	if err := Check(oneSite(), nil, Input{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestCheckBudgetExempt(t *testing.T) {
	sites := oneSite()
	c := claimFor(sites[0], 60)
	in := Input{TotalLambda: 60, BudgetUSD: 1, BudgetExempt: true}
	if err := Check(sites, []Claim{c}, in); err != nil {
		t.Fatalf("budget-exempt branch rejected for budget: %v", err)
	}
}

func TestCheckBoundaryGrace(t *testing.T) {
	// Load lands exactly on the 10 MW band boundary: Price(10) = 80, but the
	// planner deliberately priced it an epsilon inside the cheaper band. The
	// auditor must accept the cheaper rate rather than reject a correct plan.
	sites := oneSite()
	sites[0].MaxLambda = 200
	s := sites[0]
	lambda := (10 - s.DemandMW - s.IdleMW) / s.MWPerLambda
	p := s.MWPerLambda*lambda + s.IdleMW
	c := Claim{Lambda: lambda, PowerMW: p, Rate: 50, CostUSD: 50 * p, On: true}
	in := Input{TotalLambda: lambda, BudgetUSD: 1000, ServeAll: true}
	if err := Check(sites, []Claim{c}, in); err != nil {
		t.Fatalf("boundary-priced claim rejected: %v", err)
	}
}

func TestCheckAllOffIsFeasibleWhenNotServeAll(t *testing.T) {
	sites := oneSite()
	in := Input{TotalLambda: 60, BudgetUSD: 0}
	if err := Check(sites, []Claim{{}}, in); err != nil {
		t.Fatalf("all-off shed plan rejected: %v", err)
	}
}

// twoClassSite is oneSite with its load split over two server classes.
func twoClassSite() Site {
	s := oneSite()[0]
	s.MWPerLambda, s.IdleMW = 0, 0
	s.Classes = []Class{
		{MaxLambda: 40, MWPerLambda: 0.04, IdleMW: 0.5},
		{MaxLambda: 60, MWPerLambda: 0.06, IdleMW: 0.5},
	}
	return s
}

// classClaim derives a consistent claim from per-class loads.
func classClaim(s Site, loads ...float64) Claim {
	c := Claim{On: true, ClassLambda: loads}
	for k, l := range loads {
		c.Lambda += l
		if l > 0 {
			c.PowerMW += s.Classes[k].MWPerLambda*l + s.Classes[k].IdleMW
		}
	}
	c.Rate = s.Price(s.DemandMW + c.PowerMW)
	c.CostUSD = c.Rate * c.PowerMW
	return c
}

func TestCheckMultiClass(t *testing.T) {
	s := twoClassSite()
	in := Input{TotalLambda: 60, BudgetUSD: 1000, ServeAll: true}
	good := classClaim(s, 40, 20)
	if err := Check([]Site{s}, []Claim{good}, in); err != nil {
		t.Fatalf("consistent claim rejected: %v", err)
	}
	// A class switched on without load may add its idle power.
	idle := classClaim(s, 0, 60)
	idle.PowerMW += s.Classes[0].IdleMW
	idle.Rate = s.Price(s.DemandMW + idle.PowerMW)
	idle.CostUSD = idle.Rate * idle.PowerMW
	if err := Check([]Site{s}, []Claim{idle}, in); err != nil {
		t.Errorf("idle-class claim rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Claim)
		want   string
	}{
		{"power disagrees with class loads", func(c *Claim) {
			// Priced as if all 60 sat on the cheaper class.
			c.PowerMW = s.Classes[0].MWPerLambda*60 + s.Classes[0].IdleMW
			c.Rate = s.Price(s.DemandMW + c.PowerMW)
			c.CostUSD = c.Rate * c.PowerMW
		}, "class loads say"},
		{"class over its SLA limit", func(c *Claim) { *c = classClaim(s, 50, 10) }, "class 0"},
		{"class loads do not sum", func(c *Claim) { c.ClassLambda = []float64{40, 10} }, "sum to"},
		{"class arity", func(c *Claim) { c.ClassLambda = []float64{60} }, "class loads for"},
		{"negative class load", func(c *Claim) { c.ClassLambda = []float64{70, -10} }, "class 1"},
	}
	for _, tc := range cases {
		c := good
		tc.mutate(&c)
		err := Check([]Site{s}, []Claim{c}, in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// A one-class site takes no class loads.
	c := claimFor(oneSite()[0], 60)
	c.ClassLambda = []float64{60}
	if err := Check(oneSite(), []Claim{c}, in); err == nil {
		t.Error("class loads on a one-class site accepted")
	}
}
