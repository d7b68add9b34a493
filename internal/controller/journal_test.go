package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"billcap/internal/core"
	"billcap/internal/state"
)

// TestJournalHourRestartKeepsNewestRecords: a client that restarts its
// hour count (hours 0–99, then 0–19) stamps its 120th record's checkpoint
// below the two kept ones. Compaction deletes whole segments in write
// order, so the reopened journal restores the position of the newest
// record, 120 MW, not that of the highest stamp.
func TestJournalHourRestartKeepsNewestRecords(t *testing.T) {
	dir := t.TempDir()
	p := position(t, 1000, nil)
	j, _, _, err := OpenJournal(dir, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 120; k++ {
		p.Commit(plan([3]float64{}, [3]float64{}), core.HourInput{}, []float64{float64(k + 1), 1, 1})
		if err := j.Record(k%100, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Release(); err != nil {
		t.Fatal(err)
	}

	q := position(t, 1000, nil)
	j2, _, _, err := OpenJournal(dir, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Release()
	if peaks, _ := q.Snapshot(); peaks.PeaksMW[0] != 120 {
		t.Errorf("restored peak %v MW, want the 120th record's 120 MW", peaks.PeaksMW[0])
	}
}

// TestJournalCompactsAcrossRestarts: a process killed more often than
// every two checkpoints still compacts its log. Six runs each open the
// journal, record 30 hours (one checkpoint) and stop as a kill after that
// checkpoint would. When a snapshot's cut lived only in the memory of the
// process that wrote it, every restart kept one more segment (1, 2, …, 6);
// now each restart finds the cuts in the kept snapshots, and the log stays
// at most three segments long while the restore keeps every record.
func TestJournalCompactsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	hour := 0
	for run := 1; run <= 6; run++ {
		p := position(t, 1000, nil)
		j, _, _, err := OpenJournal(dir, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if hour > 0 {
			if peaks, _ := p.Snapshot(); peaks.PeaksMW[0] != float64(hour) {
				t.Fatalf("run %d restored peak %v MW, want the last record's %d MW", run, peaks.PeaksMW[0], hour)
			}
		}
		for k := 0; k < 30; k++ {
			hour++
			p.Commit(plan([3]float64{}, [3]float64{}), core.HourInput{}, []float64{float64(hour), 1, 1})
			if err := j.Record(hour-1, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Release(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 3 {
			t.Errorf("after run %d: %d WAL segments, want at most 3", run, len(segs))
		}
	}
}

// TestJournalCheckpointSharesNoMemory: the checkpoint a record hands the
// writer is captured before Record returns. The ladder's last-good plan
// shares its class loads with whoever restored it, and scribbling over
// them right after the record neither moves the bytes written nor, under
// -race, races the writer.
func TestJournalCheckpointSharesNoMemory(t *testing.T) {
	dir := t.TempDir()
	l := ladder(t)
	classes := []float64{1, 2}
	sites := make([]core.SiteAlloc, 3)
	sites[0] = core.SiteAlloc{Lambda: 3, PowerMW: 1, On: true, ClassLambda: classes}
	if err := l.Restore(core.ResilientState{LastGood: &core.Decision{Sites: sites}, LastDemand: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := OpenJournal(dir, l, position(t, 1000, specs(3)))
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < state.CheckpointEvery; h++ {
		if err := j.Record(h, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	classes[0] = 99
	if err := j.Release(); err != nil {
		t.Fatal(err)
	}

	var rec struct{ V state.Checkpoint }
	if err := json.Unmarshal(sealed(t, filepath.Join(dir, snapName(state.CheckpointEvery))), &rec); err != nil {
		t.Fatal(err)
	}
	if got := rec.V.Resilient.LastGood.Sites[0].ClassLambda; got[0] != 1 || got[1] != 2 {
		t.Errorf("checkpoint holds class loads %v, want the [1 2] of record time", got)
	}
}

// TestJournalRecordsOverlapWriter: records keep landing while the writer
// writes the checkpoints they cut, and a reopened journal restores exactly
// what the live ladder and position hold. Run under -race, it checks that
// the writer and the hour path share only what the journal's lock guards.
func TestJournalRecordsOverlapWriter(t *testing.T) {
	dir := t.TempDir()
	l := ladder(t)
	p := position(t, 1000, specs(3))
	j, _, _, err := OpenJournal(dir, l, p)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5*state.CheckpointEvery+7; h++ {
		total := 0.8e12 + 5e10*float64(h%17)
		in := core.HourInput{Hour: h, TotalLambda: total, PremiumLambda: 0.6 * total, DemandMW: []float64{170, 190, 150}}
		p.Attach(&in)
		dec := l.DecideCtx(context.Background(), in)
		it := make([]float64, len(dec.Sites))
		for i, a := range dec.Sites {
			it[i] = a.PowerMW
		}
		p.Commit(dec, in, it)
		if err := j.Record(h, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Release(); err != nil {
		t.Fatal(err)
	}
	live := state.Entry{Resilient: ptr(l.Snapshot())}
	peaks, socs := p.Snapshot()
	live.Peaks, live.BatterySoCMWh = &peaks, socs

	l2, p2 := ladder(t), position(t, 1000, specs(3))
	j2, _, _, err := OpenJournal(dir, l2, p2)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Release()
	got := state.Entry{Resilient: ptr(l2.Snapshot())}
	peaks2, socs2 := p2.Snapshot()
	got.Peaks, got.BatterySoCMWh = &peaks2, socs2
	if a, b := marshal(t, got), marshal(t, live); !bytes.Equal(a, b) {
		t.Errorf("restored %s\nlive     %s", a, b)
	}
}

func ptr[T any](v T) *T { return &v }

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sealed returns the first record line of a journal file.
func sealed(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	return line
}
