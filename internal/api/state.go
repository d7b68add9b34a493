package api

import (
	"time"

	"billcap/internal/controller"
	"billcap/internal/obs"
	"billcap/internal/state"
)

// stateBuckets span a WAL append's fsync (~0.1–1 ms) through a stalled
// disk (~1 s), in seconds.
var stateBuckets = obs.ExpBuckets(1e-4, 2, 15)

// EnableState opens (creating if needed) the state directory, restores the
// degradation ladder and the tariff position from its newest consistent
// checkpoint, and starts journaling every committed decision. It reports
// what was recovered — the same structure /readyz then serves — and
// registers the restore and state timing metrics.
func (s *Server) EnableState(dir string) (state.RestoreInfo, error) {
	t0 := time.Now()
	j, _, info, err := controller.OpenJournal(dir, s.resilient, s.pos)
	if err != nil {
		return info, err
	}
	s.reg.Gauge("billcap_state_restore_seconds",
		"Time EnableState took to open the state directory and restore from it, seconds.").
		Set(time.Since(t0).Seconds())
	j.SetMetrics(
		s.reg.Histogram("billcap_state_append_seconds",
			"Durable WAL append (write + fsync) per journaled decision, seconds.", stateBuckets),
		s.reg.Histogram("billcap_state_checkpoint_seconds",
			"Background checkpoint write (snapshot + compaction), seconds.", stateBuckets))
	s.journal = j
	s.restoreInfo = info
	s.persistErrors = s.reg.Counter("billcap_state_persist_errors_total",
		"Journaled decisions whose WAL append or checkpoint failed (the decision was still served).")
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

// CloseState waits for the checkpoint writer, writes a final checkpoint
// and releases the state directory. Safe to call when state was never
// enabled.
func (s *Server) CloseState() error {
	if s.journal == nil {
		return nil
	}
	s.hourMu.Lock()
	defer s.hourMu.Unlock()
	return s.journal.Close()
}
