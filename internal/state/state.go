// Package state makes the controller's budgeting ledger crash-safe. The bill
// cap is a stateful contract — the weekly carry-forward pool and the stale
// rung's last-known-good decision are what keep the cap honored across hours
// — so a restart must not zero them. The design is the classic pairing of an
// append-only JSON-lines WAL (one fsync'd, CRC-guarded record per recorded
// hour) with periodic snapshots (atomic temp-file + fsync + rename, two
// generations kept), split the way etcd splits its WAL: the log is a run of
// numbered segment files, and each snapshot cuts it, so compaction deletes
// whole segments the kept snapshots cover instead of rewriting the live log.
// Restore loads the newest valid snapshot, falls back to the older one if the
// newest is corrupt, and replays the segments on top. A torn or corrupt WAL
// tail is truncated and counted, never fatal; everything before the tear is
// still good.
package state

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/pricing"
)

const (
	// legacyWAL is the single log file of directories written before the
	// log was segmented; Open reads it as segment 0, the oldest.
	legacyWAL  = "wal.log"
	segPrefix  = "wal-"
	segSuffix  = ".log"
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

// Store is an open state directory. Append, Cut, WriteSnapshot and Close
// share the open segment and must not run concurrently with one another.
// A Cut's Write touches only snapshot files and segments older than the
// cut, so it may run concurrently with any of them; writes take turns.
type Store struct {
	dir string

	// wal is the open segment. top is the highest segment number the
	// directory has used, so a cut never reuses one.
	wal *os.File
	top int

	// snapMu serializes snapshot writes. cuts maps each kept snapshot file
	// to the segment its cut began, as its record states; a kept snapshot
	// missing from it (written before snapshots recorded their cut, or
	// corrupt) keeps every segment.
	snapMu sync.Mutex
	cuts   map[string]int

	// crashAt, when set, runs at each named step of a snapshot write; an
	// error stops the write there, leaving the files as a crash at that
	// step would. Tests use it.
	crashAt func(step string) error
}

// record is the on-disk framing: one JSON line per record, the payload's
// CRC-32 (IEEE) alongside the payload itself. json.RawMessage preserves the
// exact payload bytes, so the checksum verifies what was actually written.
// A snapshot's record also states the segment its cut began (Seg), which
// the checksum covers too; a WAL entry's, and a snapshot's written before
// snapshots recorded their cut, has none.
type record struct {
	CRC uint32          `json:"crc"`
	Seg int             `json:"seg,omitempty"`
	V   json.RawMessage `json:"v"`
}

// checksum is the CRC-32 of the payload followed, when seg is set, by
// seg's eight big-endian bytes.
func checksum(p []byte, seg int) uint32 {
	c := crc32.ChecksumIEEE(p)
	if seg != 0 {
		c = crc32.Update(c, crc32.IEEETable, binary.BigEndian.AppendUint64(nil, uint64(seg)))
	}
	return c
}

func seal(v any, seg int) ([]byte, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(record{CRC: checksum(p, seg), Seg: seg, V: p})
}

// unseal verifies a record, decodes its payload into v and returns its
// segment number.
func unseal(line []byte, v any) (int, error) {
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		return 0, err
	}
	if checksum(r.V, r.Seg) != r.CRC {
		return 0, fmt.Errorf("state: CRC mismatch")
	}
	return r.Seg, json.Unmarshal(r.V, v)
}

// Open opens (creating if needed) the state directory, restores the newest
// consistent checkpoint, and leaves the newest segment ready for appends. A
// corrupt or torn WAL record truncates its segment in place and drops every
// later one; a corrupt snapshot falls back to the previous generation and
// then to pure WAL replay.
func Open(dir string) (*Store, *Checkpoint, RestoreInfo, error) {
	var info RestoreInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, info, fmt.Errorf("state: %w", err)
	}
	if err := removeSnapshotTemps(dir); err != nil {
		return nil, nil, info, err
	}

	cp, cut, cuts, fallbacks := loadSnapshots(dir)
	info.SnapshotFallbacks = fallbacks
	segs, err := segments(dir)
	if err != nil {
		return nil, nil, info, err
	}
	bySeg, open, corruptions, err := loadWAL(dir, segs)
	if err != nil {
		return nil, nil, info, err
	}
	info.WALCorruptions = corruptions

	// The restored snapshot covers every record in the segments before its
	// cut, so only the segments from its cut on replay over it. That holds
	// while the segment its cut began is still there: a tear that deleted
	// it, at this Open or an earlier one, let appends continue in an older
	// segment, after the snapshot. A snapshot with no cut covers no segment
	// for sure, and every record replays.
	from := 0
	for _, sg := range segs[:len(bySeg)] {
		if sg.n == cut {
			from = cut
		}
	}
	var entries []Entry
	for k, got := range bySeg {
		if segs[k].n >= from {
			entries = append(entries, got...)
		}
	}
	cp, replayed, err := Replay(cp, entries)
	if err != nil {
		return nil, nil, info, err
	}
	info.WALEntriesReplayed = replayed
	if cp != nil {
		info.Restored = true
		info.Hour = cp.Hour
	}

	// A fresh directory's first segment is created like any log file,
	// without a directory fsync.
	s := &Store{dir: dir, top: 1, cuts: cuts}
	name, openN := segName(1), 1
	if len(segs) > 0 {
		s.top, name, openN = segs[len(segs)-1].n, segs[open].name, segs[open].n
	}
	// A cut never reuses the number of a segment a tear deleted while a
	// snapshot still names it: the replay rule above would take the new
	// segment for the one that snapshot's cut began.
	for _, seg := range cuts {
		s.top = max(s.top, seg)
	}
	// A tear (or a lost segment) can leave appends continuing in a segment
	// older than a snapshot's cut; that cut no longer covers what precedes it.
	for snap, seg := range cuts {
		if seg > openN {
			delete(cuts, snap)
		}
	}
	if s.wal, err = os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, nil, info, fmt.Errorf("state: %w", err)
	}
	return s, cp, info, nil
}

// Append durably logs one recorded hour: the record is written and fsync'd
// before Append returns, so a crash immediately after never loses it.
func (s *Store) Append(e Entry) error {
	line, err := seal(e, 0)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if _, err := s.wal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

// A Cut is a checkpoint sealed at a segment boundary: it covers every
// append before the cut, and later appends go to the segment the cut
// began. Write persists it.
type Cut struct {
	s    *Store
	name string // snapshot file name
	line []byte // the sealed checkpoint
	seg  int    // the segment the cut began
}

// Cut seals cp and cuts the log: later appends go to a new segment, created
// and made durable (directory fsync) before Cut returns. The sealed bytes
// state that segment, so a later Open knows which segments the snapshot
// covers, and share no memory with cp, so the caller may change what cp
// points at while the Cut is written.
func (s *Store) Cut(cp Checkpoint) (*Cut, error) {
	n := s.top + 1
	line, err := seal(cp, n)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(n)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	syncDir(s.dir)
	// Every record in the old segment was fsync'd by its Append.
	s.wal.Close()
	s.wal, s.top = f, n
	return &Cut{s: s, name: fmt.Sprintf("%s%08d%s", snapPrefix, cp.Hour, snapSuffix), line: line, seg: n}, nil
}

// WriteSnapshot cuts the log at cp and writes it (see Cut and Cut.Write).
func (s *Store) WriteSnapshot(cp Checkpoint) error {
	c, err := s.Cut(cp)
	if err != nil {
		return err
	}
	return c.Write()
}

// Write atomically persists the cut's checkpoint (temp file, fsync, rename,
// directory fsync) and prunes old generations. Then it deletes, oldest
// first, every segment older than the earliest cut among the kept
// snapshots: a segment goes only once a durable snapshot covers it, so a
// failed write or a crash at any step leaves a log that, replayed on top of
// the newest valid snapshot, rebuilds every recorded hour.
func (c *Cut) Write() error {
	s := c.s
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.step("temp"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, c.name+".tmp-")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if _, err := tmp.Write(append(c.line, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := s.step("synced"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, c.name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("state: %w", err)
	}
	if err := s.step("renamed"); err != nil {
		return err
	}
	syncDir(s.dir)
	s.cuts[c.name] = c.seg

	// Prune: keep the newest snapKeep generations.
	names := snapshotNames(s.dir)
	for len(names) > snapKeep {
		os.Remove(filepath.Join(s.dir, names[0]))
		delete(s.cuts, names[0])
		names = names[1:]
	}
	if err := s.step("pruned"); err != nil {
		return err
	}

	// Compact: a restore can fall back as far as the kept snapshot cut
	// earliest, so the segments before its cut are dead weight.
	floor := c.seg
	for _, name := range names {
		floor = min(floor, s.cuts[name]) // 0 for a snapshot with no known cut
	}
	segs, err := segments(s.dir)
	if err != nil {
		return err
	}
	for _, sg := range segs {
		if sg.n >= floor || os.Remove(filepath.Join(s.dir, sg.name)) != nil {
			break
		}
	}
	return s.step("deleted")
}

func (s *Store) step(name string) error {
	if s.crashAt == nil {
		return nil
	}
	return s.crashAt(name)
}

// Close releases the open segment's file handle.
func (s *Store) Close() error { return s.wal.Close() }

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// segment is one WAL file: its number and its name.
type segment struct {
	n    int
	name string
}

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// segments lists the WAL segments oldest-first: the legacy log as number 0,
// then the numbered segments in order.
func segments(dir string) ([]segment, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	var segs []segment
	for _, de := range des {
		name := de.Name()
		if name == legacyWAL {
			segs = append(segs, segment{0, name})
			continue
		}
		num, ok := strings.CutPrefix(name, segPrefix)
		if num, ok = strings.CutSuffix(num, segSuffix); !ok {
			continue
		}
		if n, err := strconv.Atoi(num); err == nil && n > 0 && name == segName(n) {
			segs = append(segs, segment{n, name})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].n < segs[b].n })
	return segs, nil
}

// removeSnapshotTemps deletes the temp files of snapshot writes that a
// crash stopped before their rename. No restore reads them and no later
// write reuses their names, so without this they would stay forever.
func removeSnapshotTemps(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	for _, de := range des {
		if n := de.Name(); strings.HasPrefix(n, snapPrefix) && strings.Contains(n, snapSuffix+".tmp-") {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return fmt.Errorf("state: removing an unfinished snapshot: %w", err)
			}
		}
	}
	return nil
}

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

// loadSnapshots returns the newest snapshot that parses and verifies and
// the cut it states (0 for none), the cut each verified snapshot states, and
// how many corrupt generations were skipped on the way to the newest.
func loadSnapshots(dir string) (*Checkpoint, int, map[string]int, int) {
	var newest *Checkpoint
	cut := 0
	cuts := map[string]int{}
	fallbacks := 0
	names := snapshotNames(dir)
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		var cp Checkpoint
		seg := 0
		if err == nil {
			seg, err = unseal(bytes.TrimSpace(data), &cp)
		}
		if err != nil || cp.Hour < 0 {
			if newest == nil {
				fallbacks++
			}
			continue
		}
		if seg > 0 {
			cuts[names[i]] = seg
		}
		if newest == nil {
			newest, cut = &cp, seg
		}
	}
	return newest, cut, cuts, fallbacks
}

// loadWAL reads the segments in order and returns their valid records, one
// slice per segment up to the one appends continue in, that segment's index
// and the corruptions counted. At the first torn or corrupt record it
// deletes every later segment, newest first, then truncates that one where
// the tear begins: records past a tear are unordered garbage by WAL
// semantics.
func loadWAL(dir string, segs []segment) ([][]Entry, int, int, error) {
	var entries [][]Entry
	for k, sg := range segs {
		path := filepath.Join(dir, sg.name)
		got, good, torn, err := readSegment(path)
		if err != nil {
			return nil, 0, 0, err
		}
		entries = append(entries, got)
		if !torn {
			continue
		}
		for i := len(segs) - 1; i > k; i-- {
			if err := os.Remove(filepath.Join(dir, segs[i].name)); err != nil {
				return nil, 0, 1, fmt.Errorf("state: dropping WAL segments past a tear: %w", err)
			}
		}
		if err := os.Truncate(path, good); err != nil {
			return nil, 0, 1, fmt.Errorf("state: truncating corrupt WAL tail: %w", err)
		}
		return entries, k, 1, nil
	}
	return entries, len(segs) - 1, 0, nil
}

// readSegment reads one segment's valid records and the length of the
// prefix they span; torn reports bytes past it that form no valid record.
func readSegment(path string) (entries []Entry, good int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("state: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var e Entry
		if _, err := unseal(line, &e); err != nil {
			torn = true
			break
		}
		entries = append(entries, e)
		good += int64(len(line)) + 1
	}
	if sc.Err() != nil {
		torn = true
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false, fmt.Errorf("state: %w", err)
	}
	// Trailing bytes that never formed a full line are a tear too.
	return entries, good, torn || fi.Size() > good, nil
}

// Replay folds WAL entries on top of a snapshot and returns the resulting
// checkpoint plus how many entries were applied. With a budget ledger,
// entries older than the snapshot are skipped (they were superseded by it);
// a gap beyond the next expected hour is an error — it means a
// durably-recorded hour went missing, which must fail loudly rather than
// silently skip budget accounting. Without one every entry folds, so the
// caller passes only the entries the snapshot does not cover: Open passes
// the segments from the snapshot's cut on.
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
