package dcmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"billcap/internal/fattree"
	"billcap/internal/queueing"
)

func twoClassSite() *Site {
	net, _ := fattree.New(16) // 1024 hosts
	return &Site{
		Name: "test",
		Classes: []ServerClass{
			{Name: "slow", Count: 500, Mu: 3600 * 100, IdleW: 60, PeakW: 120},
			{Name: "fast", Count: 400, Mu: 3600 * 300, IdleW: 80, PeakW: 160},
		},
		Queue:        queueing.Model{K: 1},
		RespSLAHours: 0.02 / 3600,
		Net:          net,
		EdgeW:        84, AggW: 84, CoreW: 240,
		CoolingEff: 2.0,
		PowerCapMW: 1.0,
	}
}

func TestValidateClasses(t *testing.T) {
	if err := twoClassSite().Validate(); err != nil {
		t.Fatalf("valid site rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Site)
		want   string
	}{
		{func(s *Site) { s.MaxServers = 10 }, "mixed"},
		{func(s *Site) { s.Queue.Mu = 1 }, "mixed"},
		{func(s *Site) { s.Classes[0].Count = 0 }, "count"},
		{func(s *Site) { s.Classes[0].Mu = 0 }, "service rate"},
		{func(s *Site) { s.Classes[1].PeakW = 1 }, "power law"},
		{func(s *Site) { s.Queue.K = 0 }, "variability"},
		{func(s *Site) { s.CoolingEff = 0 }, "cooling"},
		{func(s *Site) { s.PowerCapMW = 0 }, "power cap"},
		{func(s *Site) { s.Classes[0].Count = 2000 }, "fat tree"},
		{func(s *Site) { s.RespSLAHours = 1e-12 }, "SLA"},
	}
	for _, c := range cases {
		s := twoClassSite()
		c.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mutation %q: err = %v", c.want, err)
		}
	}
}

// TestValidateRejectsNonFinite sets every float field of a one-class site,
// its queue and a multi-class site's classes to NaN and ±Inf in turn.
func TestValidateRejectsNonFinite(t *testing.T) {
	one := map[string]func(*Site, float64){
		"PowerCapMW":   func(s *Site, v float64) { s.PowerCapMW = v },
		"IdleW":        func(s *Site, v float64) { s.IdleW = v },
		"PeakW":        func(s *Site, v float64) { s.PeakW = v },
		"Queue.Mu":     func(s *Site, v float64) { s.Queue.Mu = v },
		"Queue.K":      func(s *Site, v float64) { s.Queue.K = v },
		"RespSLAHours": func(s *Site, v float64) { s.RespSLAHours = v },
		"EdgeW":        func(s *Site, v float64) { s.EdgeW = v },
		"AggW":         func(s *Site, v float64) { s.AggW = v },
		"CoreW":        func(s *Site, v float64) { s.CoreW = v },
		"CoolingEff":   func(s *Site, v float64) { s.CoolingEff = v },
	}
	multi := map[string]func(*Site, float64){
		"class Mu":    func(s *Site, v float64) { s.Classes[1].Mu = v },
		"class IdleW": func(s *Site, v float64) { s.Classes[1].IdleW = v },
		"class PeakW": func(s *Site, v float64) { s.Classes[1].PeakW = v },
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range one {
			s := PaperSites()[0]
			set(s, v)
			if err := s.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
		for name, set := range multi {
			s := PaperHeteroSites()[0]
			set(s, v)
			if err := s.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

// TestOneClassPlanIsAffine pins a one-class site's plan to its affine model
// and SLA ceiling, and the multi-class site's refusal of a single model.
func TestOneClassPlanIsAffine(t *testing.T) {
	s := testSite()
	for _, scope := range []ModelScope{FullPower, ServerOnly} {
		plans, err := s.Plans(scope)
		if err != nil || len(plans) != 1 {
			t.Fatalf("plans = %v, %v", plans, err)
		}
		aff, _ := s.Affine(scope)
		maxLam, _ := s.Queue.MaxThroughput(s.MaxServers, s.RespSLAHours)
		if plans[0].AffineModel != aff || plans[0].MaxLambda != maxLam {
			t.Errorf("scope %d: plan %+v, want %+v and λ≤%v", scope, plans[0], aff, maxLam)
		}
	}
	if _, err := twoClassSite().Affine(FullPower); err == nil {
		t.Error("multi-class site returned a single affine model")
	}
}

func TestPlansSortedByEfficiency(t *testing.T) {
	s := twoClassSite()
	plans, err := s.Plans(FullPower)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	// The "fast" class serves 3× the requests at only ~1.3× the power, so
	// its marginal energy must rank first.
	if plans[0].Class.Name != "fast" {
		t.Errorf("efficiency order = %s first, want fast", plans[0].Class.Name)
	}
	if plans[0].A >= plans[1].A {
		t.Errorf("marginal energies not increasing: %v >= %v", plans[0].A, plans[1].A)
	}
}

func TestPlansExcludeUselessClass(t *testing.T) {
	s := twoClassSite()
	// A class so slow its bare service time exceeds the SLA.
	s.Classes = append(s.Classes, ServerClass{Name: "ancient", Count: 10, Mu: 3600 * 1, IdleW: 10, PeakW: 20})
	plans, err := s.Plans(FullPower)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range plans {
		if pl.Class.Name == "ancient" {
			t.Errorf("SLA-infeasible class included")
		}
	}
}

func TestEvaluateFillsEfficientFirst(t *testing.T) {
	s := twoClassSite()
	plans, _ := s.Plans(FullPower)
	// A load the efficient class can fully absorb.
	lam := plans[0].MaxLambda / 2
	d, err := s.Evaluate(lam)
	if err != nil {
		t.Fatal(err)
	}
	if d.ClassLambda[0] != lam || d.ClassLambda[1] != 0 {
		t.Errorf("split = %v, want all on the efficient class", d.ClassLambda)
	}
	// A load that must spill into the second class.
	lam = plans[0].MaxLambda * 1.2
	d, err = s.Evaluate(lam)
	if err != nil {
		t.Fatal(err)
	}
	if !near(d.ClassLambda[0], plans[0].MaxLambda, 1) || d.ClassLambda[1] <= 0 {
		t.Errorf("split = %v, want first class saturated", d.ClassLambda)
	}
}

func TestEvaluateZeroAndOverload(t *testing.T) {
	s := twoClassSite()
	d, err := s.Evaluate(0)
	if err != nil || d.TotalW() != 0 || d.Servers != 0 {
		t.Errorf("zero load: %+v err=%v", d, err)
	}
	if _, err := s.Evaluate(1e15); err == nil {
		t.Error("overload accepted")
	}
	if _, err := s.Evaluate(-1); err == nil {
		t.Error("negative load accepted")
	}
}

func TestEvaluatePowerAboveAffinePlan(t *testing.T) {
	// Discrete rounding only ever adds power, and at most the rounding slack
	// per active class boundary.
	s := twoClassSite()
	plans, _ := s.Plans(FullPower)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxLam := plans[0].MaxLambda + plans[1].MaxLambda
		lam := r.Float64() * maxLam * 0.99
		d, err := s.Evaluate(lam)
		if err != nil {
			return false
		}
		// Affine plan power for the efficiency-order split.
		affine := 0.0
		for c, take := range Fill(plans, lam) {
			if take > 0 {
				affine += plans[c].PowerMW(take)
			}
		}
		slack := 2 * s.RoundingSlackMW() // one per class boundary
		return d.TotalMW() >= affine-1e-9 && d.TotalMW() <= affine+slack
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLambdaRespectsCap(t *testing.T) {
	s := twoClassSite()
	lam, err := s.MaxLambda()
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Evaluate(lam)
	if err != nil {
		t.Fatalf("MaxLambda %v not servable: %v", lam, err)
	}
	if d.TotalMW() > s.PowerCapMW+1e-9 {
		t.Errorf("power %v above cap %v at MaxLambda", d.TotalMW(), s.PowerCapMW)
	}
	// Tighten the cap: capacity must shrink.
	s2 := twoClassSite()
	s2.PowerCapMW = 0.02
	lam2, err := s2.MaxLambda()
	if err != nil {
		t.Fatal(err)
	}
	if lam2 >= lam {
		t.Errorf("tight cap did not shrink capacity: %v >= %v", lam2, lam)
	}
}

func TestPaperHeteroSites(t *testing.T) {
	sites := PaperHeteroSites()
	if len(sites) != 3 {
		t.Fatalf("len = %d", len(sites))
	}
	for _, s := range sites {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
		if len(s.Classes) != 3 {
			t.Errorf("%s has %d classes", s.Name, len(s.Classes))
		}
		lam, err := s.MaxLambda()
		if err != nil || lam <= 0 {
			t.Errorf("%s MaxLambda = %v, %v", s.Name, lam, err)
		}
	}
}
