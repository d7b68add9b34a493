// Command perfbench is billcap's benchmark. It drives the real api.Server
// handler in-process through Handler().ServeHTTP — no sockets — with seeded,
// paper-shaped hour inputs, checks every answer, and prints the end-to-end
// metrics of one workload (-trace 0) or, from a separate traced run, the
// per-layer metrics (-trace 1). BENCHMARK.json at the repository root lists
// the workloads and metrics; run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-month --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object; the
// lines before it are a readable report with sample counts, the bases of
// every ratio, and the environment the result was measured in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run()) }

// metric is one reported value; n is the sample count behind it (0 when it
// is a single measured quantity).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-month, paper-13dc, route-storm or fleet-decomp")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for state directories and the span file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w mix
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := newBench(w, *seed, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: inputs:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	var ms []metric
	var t tally
	if *traced == 0 {
		p, err := b.runPhase(d, nil, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		ms, t = endToEnd(p), p.tally
		fmt.Printf("# %s seed %d: end-to-end, untraced\n", w.name, *seed)
		report(ms)
		fmt.Printf("# fail_frac %v (%d of %d operations)\n", frac(p.tally.failed, p.tally.attempted), p.tally.failed, p.tally.attempted)
		fmt.Printf("# degraded_frac %v (%d of %d decisions)\n", frac(p.degraded, len(p.replies)), p.degraded, len(p.replies))
		fmt.Printf("# decide_p50_ms is the mean over %d windows of %d decides, decide_p99_ms the p99 over %d hours' trimmed means of %d decides, route_p50_us and route_p99_us means over %d windows of %d routes\n",
			len(p.decideWins.done), decideWindow, len(p.hourLat), len(p.decideLat), len(p.routeWins.done), routeWindow)
	} else {
		ms, t, err = b.traced(d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	env, _ := json.Marshal(newEnvironment(*out))
	fmt.Printf("# environment %s\n", env)
	for _, f := range t.failures {
		fmt.Printf("# failure: %s\n", f)
	}
	return printResult(ms, t)
}

// traced runs the per-layer measurement: an untraced phase, a traced phase
// that records a span around every request, the layer replay, and /metrics
// scrapes. The tracing overhead is the traced phase's end-to-end numbers
// minus the untraced phase's.
func (b *bench) traced(d time.Duration) ([]metric, tally, error) {
	var t tally
	pu, err := b.runPhase(d*2/5, nil, false)
	if err != nil {
		return nil, t, err
	}
	tr := newTracer()
	pt, err := b.runPhase(d*2/5, tr, true)
	if err != nil {
		return nil, t, err
	}
	if err := b.replay(tr, pt.pass0, d/5); err != nil {
		return nil, t, err
	}
	for i := 0; i < 32; i++ {
		start, lat := pt.inst0.callAt(newRecorder(), "GET", metricsURL, nil)
		tr.record("obs.scrape", -1, -1, start, lat)
	}
	if err := pt.inst0.close(); err != nil {
		return nil, t, err
	}
	path := filepath.Join(b.outDir, "trace-"+b.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, t, err
	}
	t.merge(pu.tally)
	t.merge(pt.tally)

	eu, et := endToEnd(pu), endToEnd(pt)
	fmt.Printf("# %s seed %d: end-to-end, untraced phase | traced phase\n", b.w.name, b.seed)
	for i := range eu {
		fmt.Printf("#   %-22s %14.6g | %14.6g %s (n=%d | %d)\n", eu[i].name, eu[i].value, et[i].value, eu[i].unit, eu[i].n, et[i].n)
	}
	fmt.Printf("# spans: %d written to %s\n", len(tr.spans), path)
	ms := b.perLayer(pu, pt, tr, eu, et)
	fmt.Printf("# %s seed %d: per layer\n", b.w.name, b.seed)
	report(ms)
	return ms, t, nil
}

// endToEnd computes the end-to-end metrics of a phase.
func endToEnd(p *phase) []metric {
	dec := scaled(p.decideLat, time.Millisecond)
	decTail, hours := p.decideTail()
	// A run too short for one full window falls back to the percentiles of
	// all its samples.
	dec50, _, ok := p.decideWins.mean()
	dec50, decWindows := dec50/1e6, len(p.decideWins.done)
	if !ok {
		dec50, decWindows = median(dec), len(dec)
	}
	routes := int(p.routeLat.n)
	route50, route99, ok := p.routeWins.mean()
	windows := len(p.routeWins.done)
	if !ok {
		route50, route99, windows = p.routeLat.quantile(0.5), p.routeLat.quantile(0.99), 1
	}
	return []metric{
		{"decide_p50_ms", dec50, "ms", decWindows},
		{"decide_p99_ms", decTail, "ms", hours},
		{"decides_per_s", float64(len(dec)) / p.decideWall.Seconds(), "1/s", len(dec)},
		{"route_p50_us", route50 / 1e3, "us", windows},
		{"route_p99_us", route99 / 1e3, "us", windows},
		{"routes_per_s", float64(routes) / p.routeWall.Seconds(), "1/s", routes},
		{"bill_usd", p.bill, "USD", len(p.pass0)},
		{"served_ordinary_frac", p.servedOrd / p.arrivedOrd, "ratio", len(p.pass0)},
		{"max_rss_mb", maxRSSMB(), "MB", 0},
		{"setup_s", median(p.setupS), "s", len(p.setupS)},
	}
}

// perLayer computes the per-layer metrics: span timings from the traced
// phase and replay, counts from pass 0's /metrics scrape and the traced
// answers' solver fields, Go runtime activity from the untraced phase, and
// the tracing overhead.
func (b *bench) perLayer(pu, pt *phase, tr *tracer, eu, et []metric) []metric {
	// at is the q-quantile of samples divided by div, and 0 when the
	// workload does not exercise the layer.
	at := func(name string, samples []float64, q, div float64, unit string) metric {
		v := 0.0
		if len(samples) > 0 {
			v = quantile(samples, q) / div
		}
		return metric{name, v, unit, len(samples)}
	}
	var ladder []float64 // Resilient.DecideCtx minus DecideHourCtx, per hour
	for _, s := range tr.spans {
		if s.name == "core.decide" {
			ladder = append(ladder, float64(tr.spans[s.parent].dur-s.dur))
		}
	}
	routeNS := tr.durations("dispatch.route")
	for i := range routeNS {
		routeNS[i] /= routeSpanOps
	}
	var solves, presolve, nodes, incumbents, pivots, refactors, updates, decompIters, overBudget int
	var gapMax float64
	var wallMS []float64
	for _, r := range pt.replies {
		if r.overBudget {
			overBudget++
		}
		solves += r.SolverSolves
		presolve += r.SolverPresolveFixed
		nodes += r.SolverNodes
		incumbents += r.SolverIncumbents
		pivots += r.SolverPivots
		refactors += r.SolverLPRefactorizations
		updates += r.SolverLPBasisUpdates
		decompIters += r.SolverDecompIterations
		gapMax = max(gapMax, r.SolverDecompGap)
		wallMS = append(wallMS, r.SolverWallMS)
	}
	n := len(pt.replies)
	per := func(name string, v int) metric { return metric{name, frac(v, n), "count", n} }
	sc := pt.scrape0
	milpSolves := sc["billcap_milp_solves_total"]
	warm := 0.0
	if milpSolves > 0 {
		warm = sc["billcap_solver_warmstart_hits_total"] / milpSolves
	}
	ops := len(pu.decideLat) + int(pu.routeLat.n) + len(pu.batchLat)
	ms := []metric{
		at("api.decide_self_us", tr.selfTimes("api.decide"), 0.5, 1e3, "us"),
		at("api.route_us", tr.durations("api.route"), 0.5, 1e3, "us"),
		at("api.route_batch_us", scaled(pt.batchLat, time.Microsecond), 0.5, 1, "us"),
		at("core.decide_us", tr.durations("core.decide"), 0.5, 1e3, "us"),
		at("core.ladder_us", ladder, 0.5, 1e3, "us"),
		at("core.snapshot_us", tr.durations("core.snapshot"), 0.5, 1e3, "us"),
		{"core.decisions", float64(n), "count", 0},
		per("core.solves_per_decide", solves),
		{"core.presolve_fixed_per_solve", frac(presolve, solves), "count", solves},
		{"core.milp_solves", milpSolves, "count", 0},
		{"core.warmstart_hit_ratio", warm, "ratio", int(milpSolves)},
	}
	for _, rung := range []string{"time-limit", "fallback", "audit-reject", "stale", "shed"} {
		ms = append(ms, metric{"core.degraded." + rung, sc[`billcap_decide_degraded_total{rung="`+rung+`"}`], "count", 0})
	}
	ms = append(ms,
		metric{"core.audit_rejections", sc["billcap_audit_rejections_total"], "count", 0},
		metric{"core.degraded_over_budget", float64(overBudget), "count", n},
		metric{"degraded_frac", frac(pt.degraded, n), "ratio", n},
		at("milp.wall_ms", wallMS, 0.5, 1, "ms"),
		per("milp.nodes_per_decide", nodes),
		per("milp.incumbents_per_decide", incumbents),
		per("lp.pivots_per_decide", pivots),
		per("lp.refactorizations_per_decide", refactors),
		per("lp.basis_updates_per_decide", updates),
		per("decomp.iterations_per_decide", decompIters),
		metric{"decomp.gap_max", gapMax, "ratio", n},
		at("audit.check_us", tr.durations("audit.check"), 0.5, 1e3, "us"),
		at("state.append_us", tr.durations("state.append"), 0.5, 1e3, "us"),
		at("state.checkpoint_us", tr.durations("state.checkpoint"), 0.5, 1e3, "us"),
		at("dispatch.install_us", tr.durations("dispatch.install"), 0.5, 1e3, "us"),
		at("dispatch.route_ns", routeNS, 0.5, 1, "ns"),
		metric{"dispatch.swaps", sc["billcap_route_table_swaps_total"], "count", 0},
		metric{"dispatch.drift_resolves", sc["billcap_route_drift_resolves_total"], "count", 0},
		at("obs.scrape_us", tr.durations("obs.scrape"), 0.5, 1e3, "us"),
		metric{"runtime.alloc_bytes_per_op", frac(int(pu.mem.allocBytes), ops), "B/op", ops},
		metric{"runtime.gc_cycles", float64(pu.mem.gcCycles), "count", 0},
		at("runtime.gc_pause_p99_us", pu.mem.pauses, 0.99, 1e3, "us"),
		at("loadgen.lateness_p99_us", scaled(pu.lateness, time.Microsecond), 0.99, 1, "us"),
	)
	for i, m := range eu {
		switch m.name {
		case "decide_p50_ms", "decides_per_s", "route_p50_us", "routes_per_s":
			ms = append(ms, metric{"trace.overhead_" + m.name, et[i].value - m.value, m.unit, 0})
		}
	}
	return ms
}

// frac is a/b, 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func report(ms []metric) {
	for _, m := range ms {
		if m.n > 0 {
			fmt.Printf("#   %-32s %14.6g %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("#   %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
}

// printResult prints the result line. A metric without samples cannot be
// reported and counts as a failed operation.
func printResult(ms []metric, t tally) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.op(fmt.Errorf("%s: no samples", m.name))
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	out.Attempted, out.Failed, out.Correct = t.attempted, t.failed, t.failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
