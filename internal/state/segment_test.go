package state

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"billcap/internal/budget"
	"billcap/internal/pricing"
)

// newestSegment returns the path of the segment appends go to.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s: %v", dir, err)
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

func segNumbers(t *testing.T, dir string) []int {
	t.Helper()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, sg := range segs {
		out = append(out, sg.n)
	}
	return out
}

// journal drives a Store the way the controller does: every record carries
// the spend and the post-hour peak, and checkpoints carry the ledger too.
type journal struct {
	t      testing.TB
	s      *Store
	ledger *budget.Budgeter
	hour   int
}

func newJournal(t testing.TB, dir string) *journal {
	t.Helper()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := &journal{t: t, s: s, ledger: newLedger(t, 200)}
	if err := s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	return j
}

// peaks is the demand-charge ledger after h records.
func peaks(h int) *pricing.PeakState {
	return &pricing.PeakState{PeaksMW: []float64{float64(h), 0.5 * float64(h)}}
}

func (j *journal) record(n int) {
	j.t.Helper()
	for ; n > 0; n-- {
		spend := 1 + float64(j.hour%7)
		if err := j.ledger.Record(spend); err != nil {
			j.t.Fatal(err)
		}
		if err := j.s.Append(Entry{Hour: j.hour, SpentUSD: spend, Peaks: peaks(j.hour + 1)}); err != nil {
			j.t.Fatal(err)
		}
		j.hour++
	}
}

func (j *journal) checkpoint() Checkpoint {
	st := j.ledger.Snapshot()
	cp := Checkpoint{Hour: j.hour, Budget: &st}
	if j.hour > 0 {
		cp.Peaks = peaks(j.hour)
	}
	return cp
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func reopen(t *testing.T, dir string) (*Checkpoint, RestoreInfo) {
	t.Helper()
	s, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cp, info
}

// TestSnapshotDeletesCoveredSegments: each snapshot cuts the log, and once
// both kept snapshots were cut since Open, the segments before the earlier
// cut are gone; every restore still rebuilds the last recorded hour.
func TestSnapshotDeletesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2}) {
		t.Fatalf("after the first snapshot: segments %v, want [2]", got)
	}
	for k := 0; k < 3; k++ {
		j.record(5)
		if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
			t.Fatal(err)
		}
	}
	j.record(2)
	if got := segNumbers(t, dir); !slices.Equal(got, []int{4, 5}) {
		t.Errorf("segments %v, want [4 5]: the earlier kept snapshot was cut at 4", got)
	}
	if got := snapshotNames(dir); !slices.Equal(got, []string{"snap-00000010.json", "snap-00000015.json"}) {
		t.Errorf("snapshots %v", got)
	}
	want := marshal(t, j.checkpoint())
	if err := j.s.Close(); err != nil {
		t.Fatal(err)
	}
	cp, info := reopen(t, dir)
	if got := marshal(t, cp); !bytes.Equal(got, want) {
		t.Errorf("restored %s\nwant     %s", got, want)
	}
	if info.WALEntriesReplayed != 2 {
		t.Errorf("replayed %d entries on top of the newest snapshot, want 2", info.WALEntriesReplayed)
	}
}

// dropCuts rewrites every snapshot in dir in the framing written before
// snapshots recorded their cut: the payload and its bare CRC, no segment.
func dropCuts(t *testing.T, dir string) {
	t.Helper()
	for _, name := range snapshotNames(dir) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		line, err := seal(r.V, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotFromBeforeOpenKeepsSegments: the store does not know where a
// snapshot that records no cut (as written before snapshots recorded one)
// was cut, so every segment stays until a snapshot written since Open is
// the oldest kept.
func TestSnapshotFromBeforeOpenKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(5)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	j.record(5)
	if err := j.s.Close(); err != nil {
		t.Fatal(err)
	}
	dropCuts(t, dir)
	before := segNumbers(t, dir)

	var err error
	if j.s, _, _, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	j.record(5)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got[:len(before)], before) {
		t.Errorf("segments %v after the first snapshot since Open, want %v kept", got, before)
	}
	j.record(5)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); got[0] <= before[len(before)-1] {
		t.Errorf("segments %v: those from before Open outlived two snapshots since", got)
	}
	want := marshal(t, j.checkpoint())
	j.s.Close()
	if cp, _ := reopen(t, dir); !bytes.Equal(marshal(t, cp), want) {
		t.Errorf("restored %s, want %s", marshal(t, cp), want)
	}
}

// TestSnapshotCutSurvivesReopen: a snapshot states where it cut the log, so
// after a reopen the first snapshot written deletes the segments both kept
// snapshots cover, as if the store had never closed, and a restore still
// rebuilds the last recorded hour.
func TestSnapshotCutSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(5)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	j.record(5)
	if err := j.s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("segments %v before the reopen, want [2 3]", got)
	}

	var err error
	if j.s, _, _, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	j.record(5)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{3, 4}) {
		t.Errorf("segments %v after the first snapshot since the reopen, want [3 4]: the older kept snapshot was cut at 3", got)
	}
	j.record(2)
	want := marshal(t, j.checkpoint())
	j.s.Close()
	if cp, _ := reopen(t, dir); !bytes.Equal(marshal(t, cp), want) {
		t.Errorf("restored %s, want %s", marshal(t, cp), want)
	}
}

// TestSnapshotCutIsChecksummed: the checksum covers a snapshot's cut, so a
// record whose segment number changed is corrupt: the restore falls back to
// the older snapshot and nothing is compacted by the changed number.
func TestSnapshotCutIsChecksummed(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(5)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	j.record(3)
	want := marshal(t, j.checkpoint())
	if err := j.s.Close(); err != nil {
		t.Fatal(err)
	}
	names := snapshotNames(dir)
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"seg":3,`), []byte(`"seg":9,`), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("no cut at segment 3 in %s", data)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s, cp, info, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info.SnapshotFallbacks != 1 {
		t.Errorf("%d snapshot fallbacks, want 1", info.SnapshotFallbacks)
	}
	if got := marshal(t, cp); !bytes.Equal(got, want) {
		t.Errorf("restored %s\nwant     %s", got, want)
	}
	if _, ok := s.cuts[names[len(names)-1]]; ok {
		t.Error("the corrupt snapshot's cut was loaded")
	}
}

// TestLegacyWALOpensAndRetires: a directory whose log is one wal.log, as
// written before the log was segmented, restores; appends continue in it,
// and it is deleted like any segment once two new snapshots cover it.
func TestLegacyWALOpensAndRetires(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(4)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	j.record(3)
	j.s.Close()
	// Lay the directory out as the single-file log left it: its one log
	// holds the records from the oldest kept snapshot on.
	var legacy []byte
	for _, n := range segNumbers(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, segName(n)))
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, b...)
		os.Remove(filepath.Join(dir, segName(n)))
	}
	if err := os.WriteFile(filepath.Join(dir, legacyWAL), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	want := marshal(t, j.checkpoint())
	cp, info := reopen(t, dir)
	if !bytes.Equal(marshal(t, cp), want) || info.WALEntriesReplayed != 3 {
		t.Fatalf("restored %s (%+v), want %s", marshal(t, cp), info, want)
	}

	var err error
	if j.s, _, _, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	j.record(1)
	if got := segNumbers(t, dir); !slices.Equal(got, []int{0}) {
		t.Fatalf("segments %v, want the legacy log alone", got)
	}
	for k := 0; k < 2; k++ {
		if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
			t.Fatal(err)
		}
		j.record(2)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyWAL)); !os.IsNotExist(err) {
		t.Errorf("legacy log still there after two snapshots since Open: %v", err)
	}
	want = marshal(t, j.checkpoint())
	j.s.Close()
	if cp, _ := reopen(t, dir); !bytes.Equal(marshal(t, cp), want) {
		t.Errorf("restored %s, want %s", marshal(t, cp), want)
	}
}

// TestTearDropsLaterSegments: a corrupt record in an older segment
// truncates that segment and deletes every later one; appends continue in
// the truncated segment, and the next cut takes a number never used before.
func TestTearDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(3)
	if _, err := j.s.Cut(j.checkpoint()); err != nil { // a checkpoint that never landed
		t.Fatal(err)
	}
	j.record(3)
	j.s.Close()
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("segments %v, want [2 3]", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	torn := append(bytes.Join(lines[:2], nil), `{"crc":1,"v":{}}`+"\n"...)
	if err := os.WriteFile(filepath.Join(dir, segName(2)), append(torn, lines[2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	if j.s, _, _, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2}) {
		t.Errorf("segments %v after the tear, want [2]", got)
	}
	j.hour, j.ledger = 2, newLedger(t, 200)
	for _, sp := range []float64{1, 2} {
		j.ledger.Record(sp)
	}
	j.record(1)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 4}) {
		t.Errorf("segments %v, want [2 4]: segment 3 was used before the tear", got)
	}
	want := marshal(t, j.checkpoint())
	j.s.Close()
	cp, info := reopen(t, dir)
	if !bytes.Equal(marshal(t, cp), want) || info.WALCorruptions != 0 {
		t.Errorf("restored %s (%+v), want %s", marshal(t, cp), info, want)
	}
}

// TestTearForgetsLaterCuts: a tear in a segment older than a kept
// snapshot's cut leaves appends continuing before that cut, which the cut
// then no longer covers. The next snapshot must keep the segment they went
// to, so a restore that falls back past it still finds them.
func TestTearForgetsLaterCuts(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(3)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	j.record(3)
	j.s.Close()
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("segments %v, want [2 3]", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	torn := append(bytes.Join(lines[:2], nil), `{"crc":1,"v":{}}`+"\n"...)
	if err := os.WriteFile(filepath.Join(dir, segName(2)), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var cp *Checkpoint
	if j.s, cp, _, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if j.ledger, err = budget.Restore(*cp.Budget); err != nil {
		t.Fatal(err)
	}
	j.hour = cp.Hour
	j.record(2) // into segment 2, before the kept snapshot's cut at 3
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 4}) {
		t.Errorf("segments %v, want [2 4]: segment 2 holds the records since the tear", got)
	}
	want := marshal(t, j.checkpoint())
	j.s.Close()
	names := snapshotNames(dir)
	if err := os.WriteFile(filepath.Join(dir, names[len(names)-1]), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, info := reopen(t, dir)
	if !bytes.Equal(marshal(t, cp), want) || info.SnapshotFallbacks != 1 {
		t.Errorf("restored %s (%+v), want %s", marshal(t, cp), info, want)
	}
}

var errCrash = errors.New("crash")

// TestCrashPoints stops a background snapshot write at each of its steps
// while appends continue into the segment its cut began, then reopens the
// directory as a restarted process would: every crash point restores bit
// for bit what the uncrashed run restores. The writer runs on its own
// goroutine, as the controller's does, so -race sees the overlap.
func TestCrashPoints(t *testing.T) {
	run := func(t *testing.T, crashAt string) []byte {
		dir := t.TempDir()
		j := newJournal(t, dir)
		j.record(24)
		if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
			t.Fatal(err)
		}
		j.record(24)
		c, err := j.s.Cut(j.checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		appended := make(chan struct{})
		fired := false
		j.s.crashAt = func(step string) error {
			if step != crashAt {
				return nil
			}
			fired = true
			<-appended
			return errCrash
		}
		done := make(chan error, 1)
		go func() { done <- c.Write() }()
		j.record(5)
		close(appended)
		if err := <-done; err != nil && !(fired && errors.Is(err, errCrash)) {
			t.Fatal(err)
		}
		if fired != (crashAt != "") {
			t.Fatalf("crash at %q fired: %v", crashAt, fired)
		}
		if err := j.s.Close(); err != nil {
			t.Fatal(err)
		}
		cp, _ := reopen(t, dir)
		if cp.Hour != j.hour {
			t.Fatalf("restored hour %d, want %d", cp.Hour, j.hour)
		}
		return marshal(t, cp)
	}
	want := run(t, "")
	for _, step := range []string{"temp", "synced", "renamed", "pruned", "deleted"} {
		t.Run(step, func(t *testing.T) {
			if got := run(t, step); !bytes.Equal(got, want) {
				t.Errorf("crash %s: restored %s\nuncrashed restores %s", step, got, want)
			}
		})
	}
}

// TestOpenRemovesSnapshotTemps: a snapshot write stopped after its temp
// file's fsync and before the rename leaves the temp file behind. Open must
// delete it, and the restore must not change: the stopped snapshot was
// never visible, and the log still covers its hours.
func TestOpenRemovesSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(30)
	j.s.crashAt = func(step string) error {
		if step == "synced" {
			return errCrash
		}
		return nil
	}
	if err := j.s.WriteSnapshot(j.checkpoint()); !errors.Is(err, errCrash) {
		t.Fatalf("snapshot write returned %v, want the injected crash", err)
	}
	if err := j.s.Close(); err != nil {
		t.Fatal(err)
	}
	temps := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, de := range des {
			if strings.Contains(de.Name(), ".tmp-") {
				out = append(out, de.Name())
			}
		}
		return out
	}
	if len(temps()) != 1 {
		t.Fatalf("the stopped write left temp files %v, want one", temps())
	}
	want := marshal(t, j.checkpoint())
	for i := 0; i < 2; i++ {
		cp, _ := reopen(t, dir)
		if got := marshal(t, cp); !bytes.Equal(got, want) {
			t.Fatalf("reopen %d restored %s, want %s", i+1, got, want)
		}
		if left := temps(); len(left) != 0 {
			t.Fatalf("reopen %d left temp files %v", i+1, left)
		}
	}
}

// FuzzOpen feeds Open a journal directory holding two snapshots and three
// segments whose newest segment and newest snapshot carry arbitrary bytes.
// Open must not panic, and whatever it restores must be exactly the state
// after some recorded hour, never a blend of two or a state never recorded.
func FuzzOpen(f *testing.F) {
	src := f.TempDir()
	j := newJournal(f, src)
	refs := map[string]bool{}
	note := func() { refs[string(marshal(f, j.checkpoint()))] = true }
	step := func(records int) {
		for ; records > 0; records-- {
			j.record(1)
			note()
		}
	}
	step(4)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		f.Fatal(err)
	}
	step(4)
	if _, err := j.s.Cut(j.checkpoint()); err != nil { // replaced before it was written
		f.Fatal(err)
	}
	step(4)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		f.Fatal(err)
	}
	step(2)
	j.s.Close()

	files := map[string][]byte{}
	des, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	for _, de := range des {
		if files[de.Name()], err = os.ReadFile(filepath.Join(src, de.Name())); err != nil {
			f.Fatal(err)
		}
	}
	segs, _ := segments(src)
	snaps := snapshotNames(src)
	if len(segs) != 3 || len(snaps) != 2 {
		f.Fatalf("seed directory holds segments %v and snapshots %v", segs, snaps)
	}
	newestSeg, newestSnap := segs[2].name, snaps[1]
	seg, snap := files[newestSeg], files[newestSnap]
	f.Add(seg, snap)
	f.Add(seg[:len(seg)-7], snap)
	f.Add(seg, []byte("{corrupt"))
	f.Add([]byte{}, snap[:len(snap)/2])

	f.Fuzz(func(t *testing.T, seg, snap []byte) {
		dir := t.TempDir()
		for name, b := range files {
			switch name {
			case newestSeg:
				b = seg
			case newestSnap:
				b = snap
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, cp, _, err := Open(dir)
		if err != nil {
			return
		}
		defer s.Close()
		if got := marshal(t, cp); !refs[string(got)] {
			t.Fatalf("restored %s, which no recorded hour left", got)
		}
	})
}

// capperdDir journals 31 hours without a ledger, as capperd does: each
// record carries its hour's battery charge [h], a snapshot at hour 24 cuts
// the log, and a final snapshot at hour 31 carries a charge no record
// does, [999], as a checkpoint taken after a state change with no record
// of its own would.
func capperdDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 31; h++ {
		if h == 24 {
			if err := s.WriteSnapshot(Checkpoint{Hour: 24, BatterySoCMWh: []float64{23}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(Entry{Hour: h, BatterySoCMWh: []float64{float64(h)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSnapshot(Checkpoint{Hour: 31, BatterySoCMWh: []float64{999}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("segments %v, want [2 3]: hours 24–30 in 2, the final cut at 3", got)
	}
	return dir
}

// TestRestoreReplaysOnlyPastTheCut: without a ledger, the records of the
// segments before the restored snapshot's cut are covered by it and do not
// replay; before, hours 24–30 replayed over the final snapshot.
func TestRestoreReplaysOnlyPastTheCut(t *testing.T) {
	_, info := reopen(t, capperdDir(t))
	if info.WALEntriesReplayed != 0 {
		t.Errorf("replayed %d entries over the final snapshot, want 0", info.WALEntriesReplayed)
	}
}

// TestRestoreKeepsSnapshotState: the restored state is the final
// snapshot's, not the last record's written before it; before, hour 30's
// charge [30] overwrote the snapshot's [999].
func TestRestoreKeepsSnapshotState(t *testing.T) {
	cp, _ := reopen(t, capperdDir(t))
	if cp == nil || cp.Hour != 31 || !slices.Equal(cp.BatterySoCMWh, []float64{999}) {
		t.Errorf("restored %+v, want hour 31 with charge [999]", cp)
	}
}

// TestRestoreWithoutCutFoldsEveryRecord: a snapshot that states no cut (as
// written before snapshots recorded one) covers no segment for sure, so
// every record still replays over it.
func TestRestoreWithoutCutFoldsEveryRecord(t *testing.T) {
	dir := capperdDir(t)
	dropCuts(t, dir)
	cp, info := reopen(t, dir)
	if info.WALEntriesReplayed != 7 || !slices.Equal(cp.BatterySoCMWh, []float64{30}) {
		t.Errorf("replayed %d, charge %v; want all 7 records folded, ending at [30]", info.WALEntriesReplayed, cp.BatterySoCMWh)
	}
}

// TestTearForgetsCutAcrossRestarts: a tear deletes the segment a kept
// snapshot's cut began and appends continue before it; a restart before the
// next checkpoint must not hand that segment's number to a new cut, or a
// restore that falls back to the kept snapshot would take its cut as still
// valid and drop the records written after it.
func TestTearForgetsCutAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	j := newJournal(t, dir)
	j.record(3)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	j.record(3)
	j.s.Close()
	data, err := os.ReadFile(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	torn := append(bytes.Join(lines[:2], nil), `{"crc":1,"v":{}}`+"\n"...)
	if err := os.WriteFile(filepath.Join(dir, segName(2)), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	for restart := 0; restart < 2; restart++ {
		if j.s, cp, _, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		if j.ledger, err = budget.Restore(*cp.Budget); err != nil {
			t.Fatal(err)
		}
		j.hour = cp.Hour
		if restart == 0 {
			j.record(2) // into segment 2, before the kept snapshot's cut at 3
			j.s.Close()
		}
	}
	j.record(1)
	if err := j.s.WriteSnapshot(j.checkpoint()); err != nil {
		t.Fatal(err)
	}
	if got := segNumbers(t, dir); !slices.Equal(got, []int{2, 4}) {
		t.Errorf("segments %v, want [2 4]: the torn-away segment 3 is named by a kept snapshot", got)
	}
	want := marshal(t, j.checkpoint())
	j.s.Close()
	names := snapshotNames(dir)
	if err := os.WriteFile(filepath.Join(dir, names[len(names)-1]), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, info := reopen(t, dir)
	if !bytes.Equal(marshal(t, cp), want) || info.SnapshotFallbacks != 1 {
		t.Errorf("restored %s (%+v), want %s", marshal(t, cp), info, want)
	}
}
