// Package state makes the controller's budgeting ledger crash-safe. The bill
// cap is a stateful contract — the weekly carry-forward pool and the stale
// rung's last-known-good decision are what keep the cap honored across hours
// — so a restart must not zero them. The design is the classic pairing of an
// append-only JSON-lines WAL (one fsync'd, CRC-guarded record per recorded
// hour) with periodic snapshots (atomic temp-file + fsync + rename, two
// generations kept): restore loads the newest valid snapshot, falls back to
// the older one if the newest is corrupt, and replays the WAL tail on top. A
// torn or corrupt WAL tail is truncated and counted, never fatal; everything
// before the tear is still good.
package state

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/pricing"
)

const (
	walName    = "wal.log"
	snapPrefix = "snap-"
	snapSuffix = ".json"
	// snapKeep is how many snapshot generations survive pruning: the newest
	// plus one fallback in case the newest is torn by a crash mid-write (the
	// atomic rename makes that nearly impossible, but "nearly" is what this
	// package exists for).
	snapKeep = 2
)

// CheckpointEvery is the checkpoint cadence every caller keeps: a snapshot
// after each CheckpointEvery WAL appends. Between snapshots the WAL alone
// carries the state.
const CheckpointEvery = 24

// Checkpoint is the full durable state of one controller: the budget ledger,
// the degradation-ladder state and the tariff position. Every field is
// optional — capperd, which receives its budget per-request, persists no
// ledger, while the sim harness persists all of it. The ledger's shares
// already carry the forecast the budget was split by.
type Checkpoint struct {
	// Hour is the number of hours fully recorded when the checkpoint was
	// taken; WAL entries with Hour >= this replay on top.
	Hour      int                  `json:"hour"`
	Budget    *budget.State        `json:"budget,omitempty"`
	Resilient *core.ResilientState `json:"resilient,omitempty"`
	// Peaks is the demand-charge ledger: each site's billing-period peak
	// metered draw so far. Losing it across a restart would let the
	// controller re-pay demand charges the month already incurred (or worse,
	// under-predict the bill), so tariff-aware runs persist it every hour.
	Peaks *pricing.PeakState `json:"peaks,omitempty"`
	// BatterySoCMWh is the per-site battery state of charge (site order).
	BatterySoCMWh []float64 `json:"batterySoCMWh,omitempty"`
}

// Entry is one WAL record: the outcome of one recorded hour. It carries the
// full post-hour ladder state rather than a delta so that replaying the last
// entry is byte-identical to never having crashed.
type Entry struct {
	Hour      int                  `json:"hour"`
	SpentUSD  float64              `json:"spentUSD"`
	Resilient *core.ResilientState `json:"resilient,omitempty"`
	// Peaks and BatterySoCMWh mirror the checkpoint fields at per-hour
	// granularity: the full post-hour tariff state, not a delta, so replaying
	// the last entry is byte-identical to never having crashed.
	Peaks         *pricing.PeakState `json:"peaks,omitempty"`
	BatterySoCMWh []float64          `json:"batterySoCMWh,omitempty"`
}

// RestoreInfo reports what Open found, for /readyz and the restore metrics.
type RestoreInfo struct {
	// Restored is true when any prior state (snapshot or WAL entry) was
	// recovered; a fresh directory restores nothing.
	Restored bool `json:"restored"`
	// Hour is the next hour to be decided after restore.
	Hour int `json:"hour"`
	// WALCorruptions counts torn or CRC-mismatched WAL records dropped by
	// truncate-and-continue.
	WALCorruptions int `json:"walCorruptions"`
	// SnapshotFallbacks counts corrupt snapshots skipped before a valid (or
	// no) snapshot was found.
	SnapshotFallbacks int `json:"snapshotFallbacks"`
	// WALEntriesReplayed counts WAL records folded on top of the snapshot.
	WALEntriesReplayed int `json:"walEntriesReplayed"`
}

// Store is an open state directory. Methods are not safe for concurrent use;
// the controller's hour loop is sequential by construction.
type Store struct {
	dir string
	wal *os.File
	// tail mirrors the entries currently durable in the WAL file, so
	// WriteSnapshot can rewrite the WAL keeping exactly the records the
	// oldest retained snapshot generation still needs for replay.
	tail []Entry
}

// record is the on-disk framing: one JSON line per record, the payload's
// CRC-32 (IEEE) alongside the payload itself. json.RawMessage preserves the
// exact payload bytes, so the checksum verifies what was actually written.
type record struct {
	CRC uint32          `json:"crc"`
	V   json.RawMessage `json:"v"`
}

func seal(v any) ([]byte, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(record{CRC: crc32.ChecksumIEEE(p), V: p})
}

func unseal(line []byte, v any) error {
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(r.V) != r.CRC {
		return fmt.Errorf("state: CRC mismatch")
	}
	return json.Unmarshal(r.V, v)
}

// Open opens (creating if needed) the state directory, restores the newest
// consistent checkpoint, and leaves the WAL ready for appends. A corrupt or
// torn WAL tail is truncated in place; a corrupt snapshot falls back to the
// previous generation and then to pure WAL replay.
func Open(dir string) (*Store, *Checkpoint, RestoreInfo, error) {
	var info RestoreInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, info, fmt.Errorf("state: %w", err)
	}

	cp, fallbacks := loadSnapshot(dir)
	info.SnapshotFallbacks = fallbacks
	entries, corruptions, err := loadWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, nil, info, err
	}
	info.WALCorruptions = corruptions

	cp, replayed, err := Replay(cp, entries)
	if err != nil {
		return nil, nil, info, err
	}
	info.WALEntriesReplayed = replayed
	if cp != nil {
		info.Restored = true
		info.Hour = cp.Hour
	}

	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, info, fmt.Errorf("state: %w", err)
	}
	return &Store{dir: dir, wal: wal, tail: entries}, cp, info, nil
}

// Append durably logs one recorded hour: the record is written and fsync'd
// before Append returns, so a crash immediately after never loses it.
func (s *Store) Append(e Entry) error {
	line, err := seal(e)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if _, err := s.wal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	s.tail = append(s.tail, e)
	return nil
}

// WriteSnapshot atomically persists a checkpoint (temp file, fsync, rename,
// directory fsync), prunes old generations, and compacts the WAL down to the
// records the oldest retained snapshot still needs — so if the newest
// snapshot turns out corrupt, the previous generation plus the WAL can still
// reconstruct every hour. A crash between the rename and the compaction is
// benign: replay skips WAL entries older than the snapshot's hour.
func (s *Store) WriteSnapshot(cp Checkpoint) error {
	line, err := seal(cp)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	name := fmt.Sprintf("%s%08d%s", snapPrefix, cp.Hour, snapSuffix)
	tmp, err := os.CreateTemp(s.dir, name+".tmp-")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if _, err := tmp.Write(append(line, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	syncDir(s.dir)

	// Prune: keep the newest snapKeep generations.
	names := snapshotNames(s.dir)
	for i := 0; i+snapKeep < len(names); i++ {
		os.Remove(filepath.Join(s.dir, names[i]))
	}
	names = snapshotNames(s.dir)

	// Compact the WAL: the oldest retained snapshot is the furthest back a
	// restore can ever fall, so entries older than its hour are dead weight.
	floor := cp.Hour
	if len(names) > 0 {
		if h, err := snapshotHour(names[0]); err == nil && h < floor {
			floor = h
		}
	}
	keep := s.tail[:0:0]
	for _, e := range s.tail {
		if e.Hour >= floor {
			keep = append(keep, e)
		}
	}
	return s.rewriteWAL(keep)
}

// rewriteWAL atomically replaces the WAL file with the given entries and
// repoints the append handle at the new file.
func (s *Store) rewriteWAL(entries []Entry) error {
	tmp, err := os.CreateTemp(s.dir, walName+".tmp-")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	for _, e := range entries {
		line, err := seal(e)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("state: %w", err)
		}
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("state: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, walName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	syncDir(s.dir)

	wal, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	s.wal.Close()
	s.wal = wal
	s.tail = entries
	return nil
}

// snapshotHour parses the hour out of a snapshot file name.
func snapshotHour(name string) (int, error) {
	var h int
	_, err := fmt.Sscanf(name, snapPrefix+"%d"+snapSuffix, &h)
	return h, err
}

// Close releases the WAL file handle.
func (s *Store) Close() error { return s.wal.Close() }

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// snapshotNames lists snapshot files sorted oldest-first (the zero-padded
// hour in the name makes lexicographic order chronological).
func snapshotNames(dir string) []string {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, de := range des {
		n := de.Name()
		if strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// loadSnapshot returns the newest snapshot that parses and verifies, counting
// how many corrupt generations were skipped on the way.
func loadSnapshot(dir string) (*Checkpoint, int) {
	names := snapshotNames(dir)
	fallbacks := 0
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err == nil {
			var cp Checkpoint
			if unseal([]byte(strings.TrimSpace(string(data))), &cp) == nil && cp.Hour >= 0 {
				return &cp, fallbacks
			}
		}
		fallbacks++
	}
	return nil, fallbacks
}

// loadWAL reads every valid record and truncates the file at the first torn
// or corrupt one: records past a tear are unordered garbage by WAL semantics.
func loadWAL(path string) ([]Entry, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("state: %w", err)
	}
	defer f.Close()

	var entries []Entry
	var good int64
	corruptions := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var e Entry
		if err := unseal(line, &e); err != nil {
			corruptions++
			break
		}
		entries = append(entries, e)
		good += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		corruptions++
	}

	if fi, err := os.Stat(path); err == nil && fi.Size() > good {
		if corruptions == 0 {
			corruptions++ // trailing bytes that never formed a full line
		}
		if err := os.Truncate(path, good); err != nil {
			return nil, corruptions, fmt.Errorf("state: truncating corrupt WAL tail: %w", err)
		}
	}
	return entries, corruptions, nil
}

// Replay folds WAL entries on top of a snapshot and returns the resulting
// checkpoint plus how many entries were applied. Entries older than the
// snapshot are skipped (they were superseded by it); a gap beyond the next
// expected hour is an error — it means a durably-recorded hour went missing,
// which must fail loudly rather than silently skip budget accounting.
func Replay(cp *Checkpoint, entries []Entry) (*Checkpoint, int, error) {
	if cp == nil && len(entries) == 0 {
		return nil, 0, nil
	}
	out := Checkpoint{}
	if cp != nil {
		out = *cp
	}

	var b *budget.Budgeter
	if out.Budget != nil {
		var err error
		if b, err = budget.Restore(*out.Budget); err != nil {
			return nil, 0, err
		}
	}

	replayed := 0
	for _, e := range entries {
		if b != nil {
			// With a ledger, hours must be gapless: every spend is part of the
			// budget contract, so a durably-recorded hour going missing must
			// fail loudly, and entries the snapshot supersedes are skipped.
			if e.Hour < out.Hour {
				continue
			}
			if e.Hour > out.Hour {
				return nil, replayed, fmt.Errorf("state: WAL gap: have hour %d, want %d", e.Hour, out.Hour)
			}
			if math.IsNaN(e.SpentUSD) || e.SpentUSD < 0 {
				return nil, replayed, fmt.Errorf("state: WAL hour %d: bad spend %v", e.Hour, e.SpentUSD)
			}
			if err := b.Record(e.SpentUSD); err != nil {
				return nil, replayed, fmt.Errorf("state: WAL hour %d: %w", e.Hour, err)
			}
			out.Hour = e.Hour + 1
		} else if e.Hour+1 > out.Hour {
			// Without a ledger (capperd keeps no budget, and request hours
			// arrive at the caller's whim) entries fold in WAL order —
			// the last written state wins, gaps are harmless.
			out.Hour = e.Hour + 1
		}
		if e.Resilient != nil {
			out.Resilient = e.Resilient
		}
		if e.Peaks != nil {
			out.Peaks = e.Peaks
		}
		if e.BatterySoCMWh != nil {
			out.BatterySoCMWh = e.BatterySoCMWh
		}
		replayed++
	}
	if b != nil {
		st := b.Snapshot()
		out.Budget = &st
	}
	return &out, replayed, nil
}

// syncDir fsyncs a directory so a rename survives power loss. Errors are
// swallowed: some filesystems refuse directory fsync, and the rename itself
// already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
