package controller

import (
	"billcap/internal/budget"
	"billcap/internal/core"
	"billcap/internal/state"
)

// Journal is the crash-safe record of committed hours: a state.Store whose
// entries and checkpoints carry the post-hour ladder and position. It is
// not safe for concurrent use; callers record one hour at a time, after
// that hour's commit.
type Journal struct {
	store  *state.Store
	ladder *core.Resilient // nil when the decider has no ladder
	pos    *Position       // nil without a tariff position

	records int // durable records since open
	next    int // the hour after the last record; the restored hour at open
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

// Record durably logs one committed hour and the spend billed for it. Every
// state.CheckpointEvery records since open it also writes a checkpoint,
// stamped with the hour after this one, that carries the budget ledger when
// one is given (nil without a budget). A failed append records nothing.
func (j *Journal) Record(hour int, spentUSD float64, ledger *budget.Budgeter) error {
	e := j.entry(hour, spentUSD)
	if err := j.store.Append(e); err != nil {
		return err
	}
	j.records++
	j.next = hour + 1
	if j.records%state.CheckpointEvery != 0 {
		return nil
	}
	return j.checkpoint(e, ledger)
}

// Close writes a final checkpoint of the ladder and the position and
// releases the directory.
func (j *Journal) Close() error {
	err := j.checkpoint(j.entry(j.next, 0), nil)
	if cerr := j.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Release lets go of the directory without a final checkpoint, leaving it
// exactly as a killed process would.
func (j *Journal) Release() error { return j.store.Close() }

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

func (j *Journal) checkpoint(e state.Entry, ledger *budget.Budgeter) error {
	cp := state.Checkpoint{Hour: j.next, Resilient: e.Resilient, Peaks: e.Peaks, BatterySoCMWh: e.BatterySoCMWh}
	if ledger != nil {
		bs := ledger.Snapshot()
		cp.Budget = &bs
	}
	return j.store.WriteSnapshot(cp)
}
