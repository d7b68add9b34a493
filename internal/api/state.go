package api

import (
	"sync"

	"billcap/internal/core"
	"billcap/internal/obs"
	"billcap/internal/state"
)

// stateLayer is the server's optional crash-safe persistence: a state.Store
// plus the serialization the concurrent HTTP handlers need around it.
type stateLayer struct {
	mu      sync.Mutex
	store   *state.Store
	info    state.RestoreInfo
	appends int

	persistErrors *obs.Counter
}

// EnableState opens (creating if needed) the state directory, restores the
// degradation ladder from the newest consistent checkpoint, and starts
// persisting every resilient decision. It reports what was recovered — the
// same structure /readyz then serves — and registers the restore metrics.
func (s *Server) EnableState(dir string) (state.RestoreInfo, error) {
	store, cp, info, err := state.Open(dir)
	if err != nil {
		return info, err
	}
	if cp != nil && cp.Resilient != nil {
		if err := s.resilient.Restore(*cp.Resilient); err != nil {
			store.Close()
			return info, err
		}
	}
	if cp != nil {
		if err := s.restoreTariff(cp.Peaks, cp.BatterySoCMWh); err != nil {
			store.Close()
			return info, err
		}
	}
	s.state = &stateLayer{
		store: store,
		info:  info,
		persistErrors: s.reg.Counter("billcap_state_persist_errors_total",
			"Decisions whose durable WAL append failed (the decision was still served)."),
	}

	restores := s.reg.Counter("billcap_state_restores_total",
		"Successful ladder restores from the state directory at startup.")
	if info.Restored {
		restores.Inc()
	}
	s.reg.Counter("billcap_wal_corruptions_total",
		"Torn or CRC-mismatched WAL records dropped by truncate-and-continue at startup.").
		Add(float64(info.WALCorruptions))
	return info, nil
}

// CloseState writes a final checkpoint and releases the state directory.
// Safe to call when state was never enabled.
func (s *Server) CloseState() error {
	if s.state == nil {
		return nil
	}
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	ls := s.resilient.Snapshot()
	peaks, socs := s.tariffSnapshot()
	err := s.state.store.WriteSnapshot(state.Checkpoint{
		Hour: nextHour(ls), Resilient: &ls, Peaks: peaks, BatterySoCMWh: socs,
	})
	if cerr := s.state.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// persistDecision durably logs the ladder state after a resilient decision.
// Persistence failures are counted, not surfaced: the decision was already
// made and serving it beats failing the hour over a full disk.
func (s *Server) persistDecision(hour int) {
	if s.state == nil {
		return
	}
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	ls := s.resilient.Snapshot()
	peaks, socs := s.tariffSnapshot()
	if err := s.state.store.Append(state.Entry{
		Hour: hour, Resilient: &ls, Peaks: peaks, BatterySoCMWh: socs,
	}); err != nil {
		s.state.persistErrors.Inc()
		return
	}
	s.state.appends++
	if s.state.appends%state.CheckpointEvery == 0 {
		cp := state.Checkpoint{Hour: nextHour(ls), Resilient: &ls, Peaks: peaks, BatterySoCMWh: socs}
		if err := s.state.store.WriteSnapshot(cp); err != nil {
			s.state.persistErrors.Inc()
		}
	}
}

// nextHour derives a checkpoint's hour cursor from the ladder state.
func nextHour(ls core.ResilientState) int {
	if ls.LastGood == nil || ls.LastGoodHour < 0 {
		return 0
	}
	return ls.LastGoodHour + 1
}
