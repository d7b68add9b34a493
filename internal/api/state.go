package api

import (
	"billcap/internal/controller"
	"billcap/internal/state"
)

// EnableState opens (creating if needed) the state directory, restores the
// degradation ladder and the tariff position from its newest consistent
// checkpoint, and starts journaling every committed decision. It reports
// what was recovered — the same structure /readyz then serves — and
// registers the restore metrics.
func (s *Server) EnableState(dir string) (state.RestoreInfo, error) {
	j, _, info, err := controller.OpenJournal(dir, s.resilient, s.pos)
	if err != nil {
		return info, err
	}
	s.journal = j
	s.restoreInfo = info
	s.persistErrors = s.reg.Counter("billcap_state_persist_errors_total",
		"Decisions whose durable WAL append failed (the decision was still served).")
	if info.Restored && s.pos != nil {
		s.publishTariff()
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
	if s.journal == nil {
		return nil
	}
	s.hourMu.Lock()
	defer s.hourMu.Unlock()
	return s.journal.Close()
}
