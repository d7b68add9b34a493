package sim

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"billcap/internal/core"
	"billcap/internal/pricing"
)

func resilientDecider(t *testing.T, cfg Config) *ResilientCapping {
	t.Helper()
	dec, err := NewResilientCapping(cfg.DCs, cfg.Policies, core.Options{
		SolveDeadline: 2 * time.Second,
	}, core.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestChaosSoakCrashRestart is the crash-recovery guarantee: a SIGKILL
// mid-month with a state directory set loses nothing. The resumed run picks
// up at the exact next hour, the stitched-together month has zero missing
// decisions and zero cap violations, and the final budget ledger is
// identical (±1e-9) to a run that never crashed.
func TestChaosSoakCrashRestart(t *testing.T) {
	cfg, err := ShortScenario(pricing.Policy1, TightBudget(), 2)
	if err != nil {
		t.Fatal(err)
	}
	hours := cfg.Month.Len()
	cfg.Faults = ChaosFaults(20260808, hours, len(cfg.DCs))

	// Reference: the same faulted month with no crash and no state dir.
	ref, err := Run(cfg, resilientDecider(t, cfg))
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: halt mid-month at an hour that is neither a week nor a
	// snapshot boundary, so recovery has to replay a WAL tail on top of a
	// snapshot, not just read a fresh snapshot.
	crashed := cfg
	crashed.StateDir = t.TempDir()
	crashed.HaltAfterHours = hours/2 + 7
	res1, err := Run(crashed, resilientDecider(t, crashed))
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}
	if len(res1.Hours) != crashed.HaltAfterHours {
		t.Fatalf("crashed run decided %d hours, want %d", len(res1.Hours), crashed.HaltAfterHours)
	}

	// Resumed run: a fresh decider over the same directory.
	resumed := crashed
	resumed.HaltAfterHours = 0
	res2, err := Run(resumed, resilientDecider(t, resumed))
	if err != nil {
		t.Fatal(err)
	}
	if res2.StartHour != crashed.HaltAfterHours {
		t.Fatalf("resumed at hour %d, want %d", res2.StartHour, crashed.HaltAfterHours)
	}
	if res2.Restore == nil || !res2.Restore.Restored {
		t.Fatal("resumed run reports no restore")
	}
	if res2.Restore.WALEntriesReplayed == 0 {
		t.Error("resume never exercised WAL replay (halt landed on a snapshot boundary?)")
	}

	// Zero missing decisions across the crash.
	if got := len(res1.Hours) + len(res2.Hours); got != hours {
		t.Fatalf("crash+resume decided %d of %d hours", got, hours)
	}
	// Zero cap violations in either half.
	if v := res1.CapViolationHours + res2.CapViolationHours; v != 0 {
		t.Errorf("%d cap-violation hours across the crash", v)
	}

	// The restored ladder must have carried the pre-crash reserve: the
	// resumed half attributes every hour to a rung, like the reference.
	attributed := 0
	for _, n := range res2.DegradedHours {
		attributed += n
	}
	if attributed != len(res2.Hours) {
		t.Errorf("resumed rung attribution covers %d of %d hours", attributed, len(res2.Hours))
	}

	// Budget pool conservation: the stitched ledger is the uncrashed ledger.
	if ref.Budget == nil || res2.Budget == nil {
		t.Fatal("missing final ledger snapshots")
	}
	if d := math.Abs(ref.Budget.PoolUSD - res2.Budget.PoolUSD); d > 1e-9*(1+math.Abs(ref.Budget.PoolUSD)) {
		t.Errorf("pool discontinuity across crash: %v vs uncrashed %v", res2.Budget.PoolUSD, ref.Budget.PoolUSD)
	}
	if d := math.Abs(ref.Budget.SpentUSD - res2.Budget.SpentUSD); d > 1e-9*(1+ref.Budget.SpentUSD) {
		t.Errorf("spend discontinuity across crash: %v vs uncrashed %v", res2.Budget.SpentUSD, ref.Budget.SpentUSD)
	}
	if res2.Budget.NextHour != hours {
		t.Errorf("ledger cursor %d after resume, want %d", res2.Budget.NextHour, hours)
	}
	if ref.Budget.Violations != res2.Budget.Violations {
		t.Errorf("violation count %d across crash, uncrashed %d", res2.Budget.Violations, ref.Budget.Violations)
	}
}

// TestChaosSoakCorruptCheckpoint injects checkpoint corruption between crash
// and resume: the newest snapshot is garbage and the newest WAL segment has
// a torn tail. Recovery must fall back to the older snapshot generation,
// replay the segments kept since its cut, truncate the tear, and resume
// with at most the torn hour re-decided — never with a corrupted ledger.
func TestChaosSoakCorruptCheckpoint(t *testing.T) {
	cfg, err := ShortScenario(pricing.Policy1, TightBudget(), 1)
	if err != nil {
		t.Fatal(err)
	}
	hours := cfg.Month.Len()

	crashed := cfg
	crashed.StateDir = t.TempDir()
	crashed.HaltAfterHours = 60 // two snapshot generations (24, 48) + WAL tail
	if _, err := Run(crashed, resilientDecider(t, crashed)); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}

	// Corrupt the newest snapshot and tear the last WAL record.
	des, err := os.ReadDir(crashed.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "snap-") && strings.HasSuffix(de.Name(), ".json") {
			snaps = append(snaps, de.Name())
		}
	}
	if len(snaps) != 2 {
		t.Fatalf("want 2 snapshot generations, have %v", snaps)
	}
	newest := snaps[len(snaps)-1]
	if err := os.WriteFile(filepath.Join(crashed.StateDir, newest), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(crashed.StateDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	sort.Strings(segs)
	walPath := segs[len(segs)-1]
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > 10 {
		if err := os.Truncate(walPath, fi.Size()-10); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Fatalf("no WAL tail to tear: %v", err)
	}

	resumed := crashed
	resumed.HaltAfterHours = 0
	res, err := Run(resumed, resilientDecider(t, resumed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Restore == nil || !res.Restore.Restored {
		t.Fatal("no restore reported")
	}
	if res.Restore.SnapshotFallbacks == 0 {
		t.Error("corrupt snapshot not counted as a fallback")
	}
	if res.Restore.WALCorruptions == 0 {
		t.Error("torn WAL tail not counted")
	}
	// The torn record loses exactly the last durable hour: resume restarts
	// at hour 59 (the tear) rather than 60, and re-decides it.
	if res.StartHour != crashed.HaltAfterHours-1 {
		t.Errorf("resumed at hour %d, want %d (torn hour re-decided)", res.StartHour, crashed.HaltAfterHours-1)
	}
	if res.Budget == nil || res.Budget.NextHour != hours {
		t.Fatalf("ledger cursor %v, want %d", res.Budget, hours)
	}
	if res.CapViolationHours != 0 {
		t.Errorf("%d cap-violation hours after corrupt-checkpoint recovery", res.CapViolationHours)
	}
}

// TestChaosSoakAuditRejectionAttribution pins audit-fault attribution: every
// forced audit failure shows up as the audit-reject rung in the run records.
func TestChaosSoakAuditRejectionAttribution(t *testing.T) {
	cfg, err := ShortScenario(pricing.Policy1, TightBudget(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &Faults{AuditFailures: map[int]bool{10: true, 50: true, 100: true}}
	res, err := Run(cfg, resilientDecider(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DegradedHours[core.DegradeAudit]; got != len(cfg.Faults.AuditFailures) {
		t.Fatalf("%d hours at audit-reject rung, want %d: %v",
			got, len(cfg.Faults.AuditFailures), res.DegradedHours)
	}
	for _, h := range res.Hours {
		if cfg.Faults.AuditFailures[h.Hour] && h.Degraded != core.DegradeAudit {
			t.Errorf("hour %d: forced audit failure attributed to %v", h.Hour, h.Degraded)
		}
	}
	if res.CapViolationHours != 0 {
		t.Errorf("%d cap-violation hours under audit demotion", res.CapViolationHours)
	}
}
