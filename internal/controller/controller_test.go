package controller

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

func specs(n int) []core.BatterySpec {
	out := make([]core.BatterySpec, n)
	for i := range out {
		out[i] = core.BatterySpec{CapacityMWh: 40, MaxChargeMW: 15, MaxDischargeMW: 15, Efficiency: 0.9, SoCMWh: 20}
	}
	return out
}

func position(t *testing.T, rate float64, bats []core.BatterySpec) *Position {
	t.Helper()
	p, err := NewPosition(rate, pricing.PaperPolicies(pricing.Policy1), bats)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// plan is a three-site decision that charges, discharges and idles.
func plan(chg, dis [3]float64) core.Decision {
	d := core.Decision{Sites: make([]core.SiteAlloc, 3)}
	for i := range d.Sites {
		d.Sites[i] = core.SiteAlloc{ChargeMW: chg[i], DischargeMW: dis[i]}
	}
	return d
}

// TestBatteryValueDefaultsToMeanLMP: a zero value takes the site's mean
// LMP; a site with a zero-capacity spec has no battery.
func TestBatteryValueDefaultsToMeanLMP(t *testing.T) {
	bats := specs(3)
	bats[1].ValueUSDPerMWh = 42
	bats[2].CapacityMWh = 0
	var in core.HourInput
	position(t, 0, bats).Attach(&in)
	if mean := pricing.PaperPolicies(pricing.Policy1)[0].Fn.Mean(); in.Batteries[0].ValueUSDPerMWh != mean {
		t.Errorf("site 0 value %v, want the mean LMP %v", in.Batteries[0].ValueUSDPerMWh, mean)
	}
	if in.Batteries[1].ValueUSDPerMWh != 42 {
		t.Errorf("site 1 value %v, want the explicit 42", in.Batteries[1].ValueUSDPerMWh)
	}
	if in.Batteries[2] != (core.BatterySpec{}) {
		t.Errorf("site without a battery attached %+v", in.Batteries[2])
	}
}

// TestCommitClampsDischargeToITDraw: stored energy serves at most the
// site's metered IT draw — a battery never exports — so the meter never
// reads negative and the store keeps what it could not deliver.
func TestCommitClampsDischargeToITDraw(t *testing.T) {
	p := position(t, 1000, specs(3))
	grid, _ := p.Commit(plan([3]float64{}, [3]float64{15, 15, 0}), core.HourInput{}, []float64{6, 30, 10})
	if grid[0] != 0 || grid[1] != 15 || grid[2] != 10 {
		t.Errorf("grid %v, want [0 15 10]", grid)
	}
	_, socs := p.Snapshot()
	if socs[0] != 14 || socs[1] != 5 || socs[2] != 20 {
		t.Errorf("charge %v, want [14 5 20]", socs)
	}
}

// TestCommitDownSiteMovesNoEnergy: a down site's battery neither charges
// nor discharges, whatever the plan says; its meter reads its IT draw.
func TestCommitDownSiteMovesNoEnergy(t *testing.T) {
	p := position(t, 1000, specs(3))
	in := core.HourInput{Down: []bool{true, false, false}}
	grid, _ := p.Commit(plan([3]float64{10, 10, 0}, [3]float64{0, 0, 5}), in, []float64{20, 20, 20})
	if grid[0] != 20 || grid[1] != 30 || grid[2] != 15 {
		t.Errorf("grid %v, want [20 30 15]", grid)
	}
	_, socs := p.Snapshot()
	if socs[0] != 20 || socs[1] != 29 || socs[2] != 15 {
		t.Errorf("charge %v, want [20 29 15]", socs)
	}
}

// TestLedgerRatchetsOnlyUnderDemandCharge: with a zero rate the peaks stay
// at zero (nothing bills them); with a positive rate they ratchet up on the
// metered draw and never down, and Commit reports the rise.
func TestLedgerRatchetsOnlyUnderDemandCharge(t *testing.T) {
	free := position(t, 0, nil)
	if _, raised := free.Commit(plan([3]float64{}, [3]float64{}), core.HourInput{}, []float64{10, 20, 30}); raised != 0 {
		t.Errorf("zero rate raised the peaks by %v MW", raised)
	}
	if peaks, _ := free.Snapshot(); peaks.PeaksMW[0]+peaks.PeaksMW[1]+peaks.PeaksMW[2] != 0 {
		t.Errorf("zero rate ratcheted the ledger to %v", peaks.PeaksMW)
	}

	p := position(t, 1000, nil)
	if _, raised := p.Commit(plan([3]float64{}, [3]float64{}), core.HourInput{}, []float64{10, 20, 30}); raised != 60 {
		t.Errorf("first hour raised %v MW, want 60", raised)
	}
	if _, raised := p.Commit(plan([3]float64{}, [3]float64{}), core.HourInput{}, []float64{15, 5, 30}); raised != 5 {
		t.Errorf("second hour raised %v MW, want 5", raised)
	}
	if peaks, _ := p.Snapshot(); peaks.PeaksMW[0] != 15 || peaks.PeaksMW[1] != 20 || peaks.PeaksMW[2] != 30 {
		t.Errorf("peaks %v, want [15 20 30]", peaks.PeaksMW)
	}
}

// TestAttachFillsOnlyUnsetFields: the position fills the rate, the peaks
// and the bank at its live charge, but never overrides what the input
// already carries.
func TestAttachFillsOnlyUnsetFields(t *testing.T) {
	p := position(t, 1000, specs(3))
	p.Commit(plan([3]float64{}, [3]float64{4, 0, 0}), core.HourInput{}, []float64{10, 20, 30})

	var in core.HourInput
	p.Attach(&in)
	if in.DemandChargeUSDPerMW != 1000 || len(in.PeakMW) != 3 || in.PeakMW[2] != 30 {
		t.Errorf("attached rate %v peaks %v", in.DemandChargeUSDPerMW, in.PeakMW)
	}
	if len(in.Batteries) != 3 || in.Batteries[0].SoCMWh != 16 || in.Batteries[1].SoCMWh != 20 {
		t.Errorf("attached batteries %+v", in.Batteries)
	}

	own := []core.BatterySpec{{CapacityMWh: 1, MaxChargeMW: 1, MaxDischargeMW: 1, Efficiency: 1}}
	whatIf := core.HourInput{DemandChargeUSDPerMW: 7, PeakMW: []float64{1, 2, 3}, Batteries: own}
	p.Attach(&whatIf)
	if whatIf.DemandChargeUSDPerMW != 7 || whatIf.PeakMW[2] != 3 || len(whatIf.Batteries) != 1 {
		t.Errorf("attach overrode explicit fields: %+v", whatIf)
	}

	// Without a demand charge there are no peaks to price.
	var plain core.HourInput
	position(t, 0, nil).Attach(&plain)
	if plain.PeakMW != nil || plain.Batteries != nil {
		t.Errorf("rate-0, bank-less position attached %+v", plain)
	}
}

// TestRestoreRejectsCorruptState: a NaN peak, a ledger of the wrong width
// and a charge vector of the wrong length (any length, without a bank) are
// errors that restore nothing.
func TestRestoreRejectsCorruptState(t *testing.T) {
	p := position(t, 1000, specs(3))
	good := &pricing.PeakState{PeaksMW: []float64{1, 2, 3}}
	cases := []struct {
		name  string
		peaks *pricing.PeakState
		socs  []float64
	}{
		{"NaN peak", &pricing.PeakState{PeaksMW: []float64{1, math.NaN(), 3}}, []float64{1, 2, 3}},
		{"peaks for 2 sites", &pricing.PeakState{PeaksMW: []float64{1, 2}}, []float64{1, 2, 3}},
		{"charge for 2 sites", good, []float64{1, 2}},
	}
	for _, c := range cases {
		if err := p.Restore(c.peaks, c.socs); err == nil {
			t.Errorf("%s: restore accepted", c.name)
		}
		peaks, socs := p.Snapshot()
		if peaks.PeaksMW[0] != 0 || socs[0] != 20 {
			t.Errorf("%s: failed restore moved the position to %v / %v", c.name, peaks.PeaksMW, socs)
		}
	}
	if err := p.Restore(good, []float64{5, 6, 70}); err != nil {
		t.Fatal(err)
	}
	peaks, socs := p.Snapshot()
	if peaks.PeaksMW[2] != 3 || socs[0] != 5 || socs[2] != 40 {
		t.Errorf("restored %v / %v, want peaks [1 2 3] and charge [5 6 40] (clamped to capacity)", peaks.PeaksMW, socs)
	}

	// A run that lost its batteries must not resume a battery run's state
	// quietly: the recovered charge has nowhere to go.
	bankless := position(t, 1000, nil)
	if err := bankless.Restore(good, []float64{5, 6, 7}); err == nil {
		t.Error("bank-less position accepted recovered charge")
	}
	if peaks, _ := bankless.Snapshot(); peaks.PeaksMW[0] != 0 {
		t.Errorf("failed restore moved the bank-less ledger to %v", peaks.PeaksMW)
	}
}

func ladder(t *testing.T) *core.Resilient {
	t.Helper()
	sys, err := core.NewSystem(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewResilient(sys, core.ResilientOptions{})
}

func snapshots(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "snap-") && strings.HasSuffix(de.Name(), ".json") {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestJournalFreshDirRestoresNothing: a fresh directory leaves the ladder
// and the position as they were built.
func TestJournalFreshDirRestoresNothing(t *testing.T) {
	p := position(t, 1000, specs(3))
	l := ladder(t)
	j, cp, info, err := OpenJournal(t.TempDir(), l, p)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	if cp != nil || info.Restored {
		t.Fatalf("fresh directory restored %+v (%+v)", cp, info)
	}
	if peaks, socs := p.Snapshot(); peaks.PeaksMW[0] != 0 || socs[0] != 20 {
		t.Errorf("position moved to %v / %v", peaks.PeaksMW, socs)
	}
	if ls := l.Snapshot(); ls.LastGood != nil {
		t.Errorf("ladder restored %+v", ls)
	}
}

// TestJournalCheckpointCadence: a checkpoint lands after every
// CheckpointEvery records since open, stamped with the hour after the last
// record, once the writer is through; Release leaves no final checkpoint,
// Close writes one, and a reopened journal restores the position the last
// record carried.
func TestJournalCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	p := position(t, 1000, specs(3))
	j, _, _, err := OpenJournal(dir, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	const start = 5 // hours need not start at zero
	for h := start; h < start+2*state.CheckpointEvery+3; h++ {
		p.Commit(plan([3]float64{}, [3]float64{1, 0, 0}), core.HourInput{}, []float64{float64(h), 1, 1})
		if err := j.Record(h, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := j.wait(); err != nil {
			t.Fatal(err)
		}
		want := (h - start + 1) / state.CheckpointEvery
		if got := len(snapshots(t, dir)); got != want {
			t.Fatalf("after hour %d: %d checkpoints, want %d", h, got, want)
		}
	}
	got := snapshots(t, dir)
	e := state.CheckpointEvery
	if got[0] != snapName(start+e) || got[1] != snapName(start+2*e) {
		t.Errorf("checkpoints %v, want stamps %d and %d", got, start+e, start+2*e)
	}
	if err := j.Release(); err != nil {
		t.Fatal(err)
	}
	if n := len(snapshots(t, dir)); n != 2 {
		t.Errorf("Release left %d checkpoints, want 2", n)
	}

	want, wantSoC := p.Snapshot()
	q := position(t, 1000, specs(3))
	j2, cp, info, err := OpenJournal(dir, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Restored || cp.Hour != start+2*e+3 {
		t.Errorf("reopened at hour %d (%+v), want %d", cp.Hour, info, start+2*e+3)
	}
	if peaks, socs := q.Snapshot(); peaks.PeaksMW[0] != want.PeaksMW[0] || socs[0] != wantSoC[0] {
		t.Errorf("restored %v / %v, want %v / %v", peaks.PeaksMW, socs, want.PeaksMW, wantSoC)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshots(t, dir); got[len(got)-1] != snapName(start+2*e+3) {
		t.Errorf("Close wrote %v, want a final checkpoint stamped %d", got, start+2*e+3)
	}
}

func snapName(hour int) string { return fmt.Sprintf("snap-%08d.json", hour) }
