package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"billcap/internal/core"
	"billcap/internal/dispatch"
	"billcap/internal/state"
)

// span is one timed call at a layer boundary. Spans of one decided hour
// share the hour id; parent links a layer's span to the handler span of the
// hour that caused it (-1 for roots).
type span struct {
	name   string
	parent int32
	hour   int32
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns
}

// tracer holds spans in memory until the run ends. It is not safe for
// concurrent use: each goroutine records into its own fork.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// record adds a span and returns its id.
func (t *tracer) record(name string, parent int32, hour int, start time.Time, d time.Duration) int32 {
	t.spans = append(t.spans, span{
		name: name, parent: parent, hour: int32(hour),
		start: start.Sub(t.epoch).Nanoseconds(), dur: d.Nanoseconds(),
	})
	return int32(len(t.spans) - 1)
}

// fork returns a tracer for another goroutine on the same clock (nil for
// nil, so untraced code needs no branches).
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch}
}

// join folds a fork's root spans back in.
func (t *tracer) join(o *tracer) {
	if t != nil && o != nil {
		t.spans = append(t.spans, o.spans...)
	}
}

// durations returns the durations of every span with the name, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur))
		}
	}
	return out
}

// selfTimes returns, for every span with the name, its duration minus the
// durations of its direct children, in ns.
func (t *tracer) selfTimes(name string) []float64 {
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	var out []float64
	for id, s := range t.spans {
		if _, ok := child[int32(id)]; ok && s.name == name {
			out = append(out, float64(s.dur-child[int32(id)]))
		}
	}
	return out
}

// writeRouteEvery thins the api.route spans in the written file, which a
// route-storm run has over a million of; every other span is written.
const writeRouteEvery = 64

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	routes := 0
	for id, s := range t.spans {
		if s.name == "api.route" {
			if routes++; routes%writeRouteEvery != 1 {
				continue
			}
		}
		err := enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Hour   int32  `json:"hour"`
			Start  int64  `json:"startNs"`
			Dur    int64  `json:"durNs"`
		}{id, s.name, s.parent, s.hour, s.start, s.dur})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeSpanOps is how many Admit+Route calls one dispatch.route span times.
const routeSpanOps = 256

// replay times each layer from outside, through its public functions, on
// the hours pass 0 of the traced phase decided, in hour order, for up to
// budget (and at least minReplayHours). Each hour's layer spans are linked
// to that hour's api.decide handler span:
//
//	api.decide (the /v1/decide handler, measured live)
//	├ core.resilient   Resilient.DecideCtx on a shadow system
//	│ ├ core.decide    System.DecideHourCtx on a second shadow system
//	│ └ audit.check    audit.Check of the served answer
//	├ core.snapshot    Resilient.Snapshot        (stateful workloads)
//	├ state.append     Store.Append              (stateful workloads)
//	├ state.checkpoint Store.WriteSnapshot every 24th append
//	└ dispatch.install dispatch.NewSnapshot of the served answer
//
// dispatch.route times routeSpanOps Admit+Route calls on that snapshot. The
// shadow systems see the same hour sequence as the server, so their solve
// caches and ladders evolve as its do.
func (b *bench) replay(tr *tracer, decs []decided, budget time.Duration) error {
	const minReplayHours = 48
	sysA, err := core.NewSystem(b.f.sites, b.f.policies, b.options())
	if err != nil {
		return err
	}
	sysB, err := core.NewSystem(b.f.sites, b.f.policies, b.options())
	if err != nil {
		return err
	}
	ladder := core.NewResilient(sysB, core.ResilientOptions{})
	var store *state.Store
	if b.w.state {
		dir := filepath.Join(b.outDir, fmt.Sprintf("replay-%d", os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if store, _, _, err = state.Open(dir); err != nil {
			return err
		}
		defer store.Close()
	}
	pos := newPosition(b)
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	for k, d := range decs {
		if k >= minReplayHours && !time.Now().Before(deadline) {
			break
		}
		in := b.f.hours[d.hour]
		var r reply
		if err := json.Unmarshal(d.body, &r); err != nil {
			return fmt.Errorf("replay hour %d: %w", d.hour, err)
		}
		hin := pos.input(in)

		t0 := time.Now()
		ladder.DecideCtx(ctx, hin)
		res := tr.record("core.resilient", d.span, d.hour, t0, time.Since(t0))
		t0 = time.Now()
		if _, err := sysA.DecideHourCtx(ctx, hin); err != nil {
			return fmt.Errorf("replay hour %d: %w", d.hour, err)
		}
		tr.record("core.decide", res, d.hour, t0, time.Since(t0))
		t0 = time.Now()
		_ = b.audit(hin, r) // the pass's checks already counted any rejection
		tr.record("audit.check", res, d.hour, t0, time.Since(t0))

		pos.commit(r)
		if store != nil {
			t0 = time.Now()
			ls := ladder.Snapshot()
			tr.record("core.snapshot", d.span, d.hour, t0, time.Since(t0))
			var socs []float64
			for _, bat := range pos.bats {
				socs = append(socs, bat.SoC())
			}
			var peaks = pos.ledger.Snapshot()
			t0 = time.Now()
			if err := store.Append(state.Entry{Hour: d.hour, Resilient: &ls, Peaks: &peaks, BatterySoCMWh: socs}); err != nil {
				return err
			}
			tr.record("state.append", d.span, d.hour, t0, time.Since(t0))
			if (k+1)%24 == 0 {
				t0 = time.Now()
				cp := state.Checkpoint{Hour: d.hour + 1, Resilient: &ls, Peaks: &peaks, BatterySoCMWh: socs}
				if err := store.WriteSnapshot(cp); err != nil {
					return err
				}
				tr.record("state.checkpoint", d.span, d.hour, t0, time.Since(t0))
			}
		}

		lambdas := make([]float64, len(r.Sites))
		for i, s := range r.Sites {
			lambdas[i] = s.Lambda
		}
		t0 = time.Now()
		snap, err := dispatch.NewSnapshot(lambdas, r.ServedOrdinary, max(0, in.total-in.premium), d.hour, uint64(k+1))
		tr.record("dispatch.install", d.span, d.hour, t0, time.Since(t0))
		if err != nil {
			continue // a shed answer has nothing to route; the server keeps its table too
		}
		t0 = time.Now()
		for j := 0; j < routeSpanOps; j++ {
			class := dispatch.Ordinary
			if b.premium[j] {
				class = dispatch.Premium
			}
			if snap.Admit(class) {
				snap.Route()
			}
		}
		tr.record("dispatch.route", -1, d.hour, t0, time.Since(t0))
	}
	return nil
}
