package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"billcap/internal/core"
)

// maxBatchHours caps a batch at one week of hourly decisions; beyond that a
// client should page, and the cap bounds both the response size and the
// goroutines one request can fan out.
const maxBatchHours = 168

// BatchDecideRequest is the body of POST /v1/decide/batch: independent hours
// solved concurrently, up to GOMAXPROCS at once (see core.DecideBatch).
// TimeoutMS bounds the whole batch, not each hour. Per-hour TimeoutMS and
// Resilient are rejected — the batch path is the plain optimal-or-error
// contract; clients needing the degradation ladder call /v1/decide per hour.
type BatchDecideRequest struct {
	Hours     []DecideRequest `json:"hours"`
	TimeoutMS float64         `json:"timeoutMS,omitempty"`
}

// BatchHourResponse is one hour's slot in a BatchDecideResponse: exactly one
// of Decision or Error is set. Errors are per-hour so one infeasible hour
// does not void the rest of the horizon.
type BatchHourResponse struct {
	Decision *DecideResponse `json:"decision,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchDecideResponse answers POST /v1/decide/batch, index-aligned with the
// request's hours.
type BatchDecideResponse struct {
	Hours []BatchHourResponse `json:"hours"`
}

func (s *Server) handleDecideBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req BatchDecideRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Hours) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("batch has no hours"))
		return
	}
	if len(req.Hours) > maxBatchHours {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d hours exceeds the %d-hour cap", len(req.Hours), maxBatchHours))
		return
	}
	ins := make([]core.HourInput, len(req.Hours))
	for i, h := range req.Hours {
		if h.TimeoutMS != 0 || h.Resilient {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("hours[%d]: timeoutMS and resilient are batch-level only", i))
			return
		}
		ins[i] = s.hourInputFrom(h)
		if err := s.sys.ValidateInput(ins[i]); err != nil {
			writeErr(w, statusFor(err), fmt.Errorf("hours[%d]: %w", i, err))
			return
		}
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS*float64(time.Millisecond)))
		defer cancel()
	}
	decs, errs := s.sys.DecideBatch(ctx, ins)
	resp := BatchDecideResponse{Hours: make([]BatchHourResponse, len(ins))}
	for i := range ins {
		if errs[i] != nil {
			resp.Hours[i].Error = errs[i].Error()
			continue
		}
		d := s.decideResponseFrom(decs[i])
		resp.Hours[i].Decision = &d
	}
	writeJSON(w, http.StatusOK, resp)
}
