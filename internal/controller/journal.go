package controller

import (
	"sync"
	"time"

	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/obs"
	"billcap/internal/state"
)

// Journal is the crash-safe record of committed hours: a state.Store whose
// entries and checkpoints carry the post-hour ladder and position. It is
// not safe for concurrent use; callers record one hour at a time, after
// that hour's commit. Checkpoints are written off that path, by one writer
// goroutine that shares nothing with the caller but the sealed bytes of
// each checkpoint and the writer fields below.
type Journal struct {
	store  *state.Store
	ladder *core.Resilient // nil when the decider has no ladder
	pos    *Position       // nil without a tariff position

	records int // durable records since open
	next    int // the hour after the last record; the restored hour at open

	appendSeconds, checkpointSeconds *obs.Histogram // nil without metrics

	// The writer: done is non-nil while a writer goroutine runs, and is
	// closed when it exits. At most one write is in flight; queued is the
	// cut it writes next, replaced by any newer one. err is the first write
	// error not yet returned.
	mu     sync.Mutex
	done   chan struct{}
	queued *state.Cut
	err    error
}

// OpenJournal opens (creating if needed) the state directory and restores
// its newest consistent checkpoint into the ladder and the position; either
// may be nil. The checkpoint (nil for a fresh directory) is returned too,
// for state the caller restores itself, such as a budget ledger.
func OpenJournal(dir string, ladder *core.Resilient, pos *Position) (*Journal, *state.Checkpoint, state.RestoreInfo, error) {
	store, cp, info, err := state.Open(dir)
	if err != nil {
		return nil, nil, info, err
	}
	j := &Journal{store: store, ladder: ladder, pos: pos}
	if cp == nil {
		return j, nil, info, nil
	}
	if ladder != nil && cp.Resilient != nil {
		err = ladder.Restore(*cp.Resilient)
	}
	if err == nil && pos != nil {
		err = pos.Restore(cp.Peaks, cp.BatterySoCMWh)
	}
	if err != nil {
		store.Close()
		return nil, nil, info, err
	}
	j.next = cp.Hour
	return j, cp, info, nil
}

// SetMetrics times each append and each background checkpoint write into
// the given histograms, in seconds. Call it before the first Record.
func (j *Journal) SetMetrics(appendSeconds, checkpointSeconds *obs.Histogram) {
	j.appendSeconds, j.checkpointSeconds = appendSeconds, checkpointSeconds
}

// Record durably logs one committed hour and the spend billed for it: the
// entry is fsync'd before Record returns. Every state.CheckpointEvery
// records since open it also captures a checkpoint, stamped with the hour
// after this one, that carries the budget ledger when one is given (nil
// without a budget); it cuts the log there and hands the checkpoint to the
// writer. A failed append records nothing. A failed checkpoint write is
// returned by the next Record, Close or Release.
func (j *Journal) Record(hour int, spentUSD float64, ledger *budget.Budgeter) error {
	e := j.entry(hour, spentUSD)
	t0 := time.Now()
	if err := j.store.Append(e); err != nil {
		return err
	}
	if j.appendSeconds != nil {
		j.appendSeconds.Observe(time.Since(t0).Seconds())
	}
	j.records++
	j.next = hour + 1
	if j.records%state.CheckpointEvery == 0 {
		c, err := j.store.Cut(j.checkpoint(e, ledger))
		if err != nil {
			return err
		}
		j.submit(c)
	}
	return j.takeErr()
}

// Close waits for the writer, writes a final checkpoint of the ladder and
// the position and releases the directory.
func (j *Journal) Close() error {
	err := j.wait()
	if cerr := j.store.WriteSnapshot(j.checkpoint(j.entry(j.next, 0), nil)); err == nil {
		err = cerr
	}
	if cerr := j.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Release waits for the writer and lets go of the directory without a
// final checkpoint, leaving it exactly as a process killed after its last
// checkpoint landed would.
func (j *Journal) Release() error {
	err := j.wait()
	if cerr := j.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// entry captures the post-hour ladder and position.
func (j *Journal) entry(hour int, spentUSD float64) state.Entry {
	e := state.Entry{Hour: hour, SpentUSD: spentUSD}
	if j.ladder != nil {
		ls := j.ladder.Snapshot()
		e.Resilient = &ls
	}
	if j.pos != nil {
		peaks, socs := j.pos.Snapshot()
		e.Peaks, e.BatterySoCMWh = &peaks, socs
	}
	return e
}

func (j *Journal) checkpoint(e state.Entry, ledger *budget.Budgeter) state.Checkpoint {
	cp := state.Checkpoint{Hour: j.next, Resilient: e.Resilient, Peaks: e.Peaks, BatterySoCMWh: e.BatterySoCMWh}
	if ledger != nil {
		bs := ledger.Snapshot()
		cp.Budget = &bs
	}
	return cp
}

// submit hands a cut to the writer, starting it when none runs.
func (j *Journal) submit(c *state.Cut) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done != nil {
		j.queued = c
		return
	}
	j.done = make(chan struct{})
	go j.write(c, j.done)
}

// write is the writer goroutine: it writes c, then whatever was queued
// meanwhile, and exits when the queue is empty.
func (j *Journal) write(c *state.Cut, done chan struct{}) {
	defer close(done)
	for c != nil {
		t0 := time.Now()
		err := c.Write()
		if j.checkpointSeconds != nil {
			j.checkpointSeconds.Observe(time.Since(t0).Seconds())
		}
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		c, j.queued = j.queued, nil
		if c == nil {
			j.done = nil
		}
		j.mu.Unlock()
	}
}

// wait blocks until no checkpoint write is in flight or queued, then
// returns the first write error not yet returned.
func (j *Journal) wait() error {
	j.mu.Lock()
	done := j.done
	j.mu.Unlock()
	if done != nil {
		<-done
	}
	return j.takeErr()
}

func (j *Journal) takeErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.err
	j.err = nil
	return err
}
