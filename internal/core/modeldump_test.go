package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// dumpWeek writes the step-1 model of every hour of a seeded 168-hour week
// through WriteHourModel into one FNV-64a digest. tariff turns on a demand
// charge and a battery at every site.
func dumpWeek(t *testing.T, s *System, seed int64, tariff bool) uint64 {
	t.Helper()
	n := s.NumSites()
	r := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for hour := 0; hour < 168; hour++ {
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(hour%24)/24)
		total := s.MaxThroughput() * diurnal * (0.5 + 0.4*r.Float64())
		in := HourInput{
			Hour:          hour,
			TotalLambda:   total,
			PremiumLambda: total * (0.3 + 0.2*r.Float64()),
			DemandMW:      make([]float64, n),
			BudgetUSD:     math.Inf(1),
		}
		for i := range in.DemandMW {
			in.DemandMW[i] = 140 + 70*r.Float64()
		}
		if hour%41 == 40 {
			in.Down = make([]bool, n)
			in.Down[r.Intn(n)] = true
		}
		if tariff {
			in.DemandChargeUSDPerMW = 1500
			in.PeakMW = make([]float64, n)
			in.Batteries = make([]BatterySpec, n)
			for i := range in.PeakMW {
				in.PeakMW[i] = 60 * r.Float64()
				in.Batteries[i] = BatterySpec{
					CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15, Efficiency: 0.9,
					SoCMWh: 40 * r.Float64(), ValueUSDPerMWh: 20 + 20*r.Float64(),
				}
			}
		}
		if err := s.WriteHourModel(h, in, in.TotalLambda); err != nil {
			t.Fatalf("hour %d: %v", hour, err)
		}
	}
	return h.Sum64()
}

// TestHourModelDumpGolden pins the text of every one-class hour model:
// variables, rows, coefficients and names, in order, over a week of paper
// hours with a demand charge and batteries and over the 13- and 50-site
// synthetic fleets. A multi-class site adds its class rows without moving a
// byte of a one-class site's model.
func TestHourModelDumpGolden(t *testing.T) {
	cases := []struct {
		name   string
		sys    *System
		tariff bool
		want   uint64
	}{
		{"paper-tariff", paperSystem(t, Options{}), true, 0x2f29088032b236c6},
		{"synthetic-13", syntheticSystem(t, 13, Options{}), false, 0xcef47f579cfb1756},
		{"synthetic-50", syntheticSystem(t, 50, Options{}), false, 0x3ea69aa5a1915136},
	}
	for _, c := range cases {
		if got := dumpWeek(t, c.sys, 11, c.tariff); got != c.want {
			t.Errorf("%s: model dump digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
