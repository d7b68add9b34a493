package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// mix is one workload: a traffic mix over one program configuration.
type mix struct {
	name  string
	sites int
	// hours is the number of hours one pass decides, hour 0 included (it is
	// the set-up decide that installs the first routing table).
	hours     int
	tariff    bool // demand charge + batteries (EnableTariff)
	state     bool // WAL + checkpoints (EnableState)
	decompose bool // Lagrangian decomposition above 20 sites
	// storm selects the route-storm traffic shape: closed-loop routes
	// against open-loop decides and flash-crowd batches.
	storm bool
	// budgetScale multiplies the fleet's monthly budget beyond its sites/3
	// share of the paper's; 0 means 1.
	budgetScale float64
}

var workloads = []mix{
	// paper-month is the paper's deployed control loop at its own size, two
	// paper months on the 3 paper sites: JSON handling, the ladder and
	// audit, the tariff commit, the WAL fsync and the table install make up
	// most of each decision, and the tariff bypasses the solve cache, so a
	// solver or cache change should barely move it.
	{name: "paper-month", sites: 3, hours: 1344, tariff: true, state: true},
	// paper-13dc is the §IV-C instance (13 DCs × 5 price levels), where
	// presolve, warm starts, parallel branch-and-bound and the sparse LP do
	// most of the work and the solve cache is active.
	{name: "paper-13dc", sites: 13, hours: 672},
	// route-storm is the request data plane: routes read the table while
	// decides and flash-crowd drift re-solves swap it, which shows whether a
	// gain on one side of the table costs the other.
	{name: "route-storm", sites: 3, hours: 336, storm: true},
	// fleet-decomp is the only workload that reaches internal/decomp: 50
	// synthetic DCs above the default decomposition threshold of 20. Later
	// synthetic sites draw more power at higher prices than the paper's, so
	// the budget is raised by a fixed factor to keep ordinary traffic in
	// play rather than shed almost entirely. A pass is two paper months, so
	// decide_p99_ms rests on more than a handful of hard hours.
	{name: "fleet-decomp", sites: 50, hours: 1344, decompose: true, budgetScale: 1.5},
}

const (
	// setupReps is how many extra set-ups a phase measures before its
	// passes, so setup_s is a median over enough samples to be steady.
	setupReps = 16
	// routesPerHour is how many closed-loop routes the decide workloads'
	// client sends after each decided hour, against that hour's table, so
	// route samples spread over the whole run.
	routesPerHour = 24
	// stormPeriod is route-storm's open-loop decide schedule: one hour's
	// decide every period, independent of how fast the program answers.
	stormPeriod = 4 * time.Millisecond
	// flashSlot is the extra schedule time a flash-crowd hour gets for its
	// /v1/route/batch replay before the next decide is due: about twice
	// what the replay's 2,000–3,300 batches take on a 2-vCPU machine.
	flashSlot = 100 * time.Millisecond
	// stormBatch is the largest /v1/route/batch request the API accepts.
	stormBatch = 1 << 31
	// routeYieldEvery is how many requests route-storm's route client sends
	// between yields of its processor (about 0.4 ms of routing).
	routeYieldEvery = 64
)

// bench runs one workload with one seed.
type bench struct {
	w       mix
	f       *fleet
	seed    int64
	outDir  string
	setups  int
	premium []bool // seeded route class sequence, 80 % premium
}

func newBench(w mix, seed int64, outDir string) (*bench, error) {
	f, err := newFleet(w, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x0c1a55))
	premium := make([]bool, 1<<16)
	for i := range premium {
		premium[i] = rng.Float64() < premiumFrac
	}
	return &bench{w: w, f: f, seed: seed, outDir: outDir, premium: premium}, nil
}

// decided is one /v1/decide exchange as the client saw it.
type decided struct {
	hour   int
	status int
	body   []byte
	lat    time.Duration
	span   int32 // api.decide span id in a traced phase, else -1
}

// phase accumulates one measured phase of a run.
type phase struct {
	setupS     []float64
	decideLat  []time.Duration
	hourLat    map[int][]time.Duration // decide latencies by hour, one per pass
	decideWins windowed
	decideWall time.Duration
	routeLat   latHist
	routeWins  windowed
	routeWall  time.Duration
	batchLat   []time.Duration
	lateness   []time.Duration // route-storm: how late each decide was sent
	tally      tally
	mem        memWindow // Go runtime activity during the timed sections
	replies    []reply   // every checked decide answer
	degraded   int

	// Pass 0 decides a fixed set of hours whatever the speed, so what it
	// produces is comparable between runs and commits.
	bill, servedOrd, arrivedOrd float64
	pass0                       []decided
	scrape0                     map[string]float64
	inst0                       *instance // kept open for the traced replay
}

// decided records one decide's latency.
func (p *phase) decided(hour int, lat time.Duration) {
	p.decideLat = append(p.decideLat, lat)
	p.decideWins.add(float64(lat))
	if p.hourLat == nil {
		p.hourLat = map[int][]time.Duration{}
	}
	p.hourLat[hour] = append(p.hourLat[hour], lat)
}

// decideTail is the p99 over hours of each hour's trimmed mean decide
// latency across the phase's passes, in ms, and the number of hours. Every
// pass decides the same hours, so dropping an hour's slowest and fastest
// pass drops the host's and the Go scheduler's stalls, which seldom hit one
// hour twice, and keeps the hours the program itself is slow on; the mean of
// the rest moves with the share of passes the host ran slow, where a median
// would jump from one speed to the other.
func (p *phase) decideTail() (float64, int) {
	var hours []float64
	for _, ls := range p.hourLat {
		xs := scaled(ls, time.Millisecond)
		slices.Sort(xs)
		if len(xs) >= 3 {
			xs = xs[1 : len(xs)-1]
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		hours = append(hours, sum/float64(len(xs)))
	}
	return quantile(hours, 0.99), len(hours)
}

// tally counts operations and failures.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 8 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

// runPhase measures for d: a few extra set-ups, then passes until the
// deadline. Pass 0 always runs whole; later passes stop at the deadline.
// With keep, pass 0's instance stays open for the traced replay.
func (b *bench) runPhase(d time.Duration, tr *tracer, keep bool) (*phase, error) {
	p := &phase{decideWins: windowed{size: decideWindow}, routeWins: windowed{size: routeWindow}}
	deadline := time.Now().Add(d)
	for i := 0; i < setupReps; i++ {
		inst, dt, d0, err := b.setup()
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, dt.Seconds())
		pos := newPosition(b)
		if _, err := b.checkDecide(pos, b.f.hours[0], d0); err != nil {
			p.tally.op(fmt.Errorf("set-up decide: %w", err))
		} else {
			p.tally.op(nil)
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
		debug.FreeOSMemory()
	}
	for pass := 0; ; pass++ {
		inst, dt, d0, err := b.setup()
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, dt.Seconds())
		if tr != nil {
			d0.span = tr.record("api.decide", -1, 0, time.Now().Add(-d0.lat), d0.lat)
		}
		last := time.Time{}
		if pass > 0 {
			last = deadline
		}
		if b.w.storm {
			err = b.stormPass(p, inst, d0, last, tr, pass == 0)
		} else {
			err = b.decidePass(p, inst, d0, last, tr, pass == 0)
		}
		if err != nil {
			return nil, err
		}
		if pass == 0 && keep {
			p.inst0 = inst
		} else if err := inst.close(); err != nil {
			return nil, err
		}
		if pass == 0 && !keep {
			// Only the traced replay reads pass 0's answers again.
			for i := range p.pass0 {
				p.pass0[i].body = nil
			}
		}
		// Each set-up and pass starts from a collected heap with its free
		// pages returned, so max_rss_mb is the peak of one instance at work
		// rather than of whatever garbage earlier ones left unscavenged.
		debug.FreeOSMemory()
		if !time.Now().Before(deadline) {
			return p, nil
		}
	}
}

// decidePass is one closed-loop pass of a decide workload: one client sends
// the hours in order, each as soon as the previous answer is back, and
// after each hour sends routesPerHour closed-loop routes against its table.
// decides_per_s and routes_per_s each divide by the time spent on their own
// requests.
func (b *bench) decidePass(p *phase, inst *instance, d0 decided, deadline time.Time, tr *tracer, first bool) error {
	decs := []decided{d0}
	rec := newRecorder()
	rt := newRouteTally(len(b.f.sites), &p.routeWins)
	p.mem.begin()
	for _, in := range b.f.hours[1:] {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		start, lat := inst.callAt(rec, http.MethodPost, decideURL, in.body)
		d := decided{hour: in.hour, status: rec.status(), body: bytes.Clone(rec.buf.Bytes()), lat: lat, span: -1}
		if tr != nil {
			d.span = tr.record("api.decide", -1, in.hour, start, lat)
		}
		decs = append(decs, d)
		p.decided(in.hour, lat)
		t1 := time.Now()
		p.decideWall += t1.Sub(t0)
		b.routeLoop(inst, rt, routesPerHour, nil, tr, in.hour*routesPerHour)
		p.routeWall += time.Since(t1)
	}
	p.mem.end()
	return b.finishPass(p, inst, decs, []*routeTally{rt}, nil, first)
}

// stormPass is one route-storm pass. Goroutine 1 sends POST /v1/route in a
// closed loop for the whole pass. Goroutine 2 (this one) posts the hours'
// decides on a fixed schedule — an open loop — and after a flash-crowd hour
// replays the crowd through /v1/route/batch within the hour's extra slot,
// pushing arrivals past the drift ratio so the asynchronous re-solve and its
// mid-hour table swap run too. A decide's latency is its handler time, as on
// the other workloads. How late the client sent each decide is recorded
// apart (loadgen.lateness_p99_us): this client's timer shares the Go
// scheduler with the route client, so most of its delay is the benchmark's
// own, and a decide slow enough to delay the next one still shows there.
func (b *bench) stormPass(p *phase, inst *instance, d0 decided, deadline time.Time, tr *tracer, first bool) error {
	rt := newRouteTally(len(b.f.sites), &p.routeWins)
	var stop atomic.Bool
	var wg sync.WaitGroup
	rtr := tr.fork()
	p.mem.begin()
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		b.routeLoop(inst, rt, 0, &stop, rtr, 0)
	}()

	decs := []decided{d0}
	bt := &batchTally{perSite: make([]int64, len(b.f.sites)), byVersion: map[uint64][2]int64{}}
	rec := newRecorder()
	due := t0
	for _, in := range b.f.hours[1:] {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		due = due.Add(stormPeriod)
		time.Sleep(time.Until(due))
		p.lateness = append(p.lateness, time.Since(due))
		start, lat := inst.callAt(rec, http.MethodPost, decideURL, in.body)
		d := decided{hour: in.hour, status: rec.status(), body: bytes.Clone(rec.buf.Bytes()), lat: lat, span: -1}
		if tr != nil {
			d.span = tr.record("api.decide", -1, in.hour, start, lat)
		}
		decs = append(decs, d)
		p.decided(in.hour, lat)
		if in.flash > 0 {
			b.flashCrowd(p, inst, bt, in, tr)
			due = due.Add(flashSlot)
		}
	}
	stop.Store(true)
	wg.Wait()
	wall := time.Since(t0)
	p.mem.end()
	tr.join(rtr)
	p.decideWall += wall
	p.routeWall += wall
	return b.finishPass(p, inst, decs, []*routeTally{rt}, bt, first)
}

// batchTally accumulates /v1/route/batch outcomes for the conservation
// checks.
type batchTally struct {
	perSite   []int64
	dropped   int64
	byVersion map[uint64][2]int64 // routed, arrivals
	tally     tally
}

// flashCrowd replays a flash crowd of in.flash requests (80 % premium)
// through /v1/route/batch in the largest batches the API accepts.
func (b *bench) flashCrowd(p *phase, inst *instance, bt *batchTally, in hourInput, tr *tracer) {
	rec := newRecorder()
	var body []byte
	for left := in.flash; left > 0; {
		n := min(left, stormBatch)
		left -= n
		prem := int64(float64(n) * premiumFrac)
		body = append(body[:0], `{"total":`...)
		body = strconv.AppendInt(body, n, 10)
		body = append(body, `,"premium":`...)
		body = strconv.AppendInt(body, prem, 10)
		body = append(body, '}')
		start, lat := inst.callAt(rec, http.MethodPost, routeBatchURL, body)
		if tr != nil {
			tr.record("api.route_batch", -1, in.hour, start, lat)
		}
		p.batchLat = append(p.batchLat, lat)
		bt.tally.op(bt.add(rec, n, len(b.f.sites)))
	}
}

// add checks one batch answer and folds its counts in.
func (bt *batchTally) add(rec *recorder, n int64, sites int) error {
	if rec.status() != http.StatusOK {
		return fmt.Errorf("route/batch: status %d", rec.status())
	}
	body := rec.buf.Bytes()
	requests, ok1 := jsonInt(body, `"requests"`)
	routed, ok2 := jsonInt(body, `"routed"`)
	dropped, ok3 := jsonInt(body, `"droppedOrdinary"`)
	version, ok4 := jsonInt(body, `"version"`)
	if !(ok1 && ok2 && ok3 && ok4) || requests != n || routed+dropped != n {
		return fmt.Errorf("route/batch: inconsistent answer for %d requests: %s", n, body)
	}
	counts, ok := jsonInts(body, `"count"`, sites)
	if !ok {
		return fmt.Errorf("route/batch: want %d site counts: %s", sites, body)
	}
	var sum int64
	for i, c := range counts {
		bt.perSite[i] += c
		sum += c
	}
	if sum != routed {
		return fmt.Errorf("route/batch: site counts sum to %d, routed %d", sum, routed)
	}
	bt.dropped += dropped
	v := bt.byVersion[uint64(version)]
	bt.byVersion[uint64(version)] = [2]int64{v[0] + routed, v[1] + requests}
	return nil
}

// routeTally is one route client's record: latencies, per-site counts and
// per-table-version totals for the conservation checks.
type routeTally struct {
	lat     latHist
	wins    *windowed // the phase's, across its passes
	perSite []int64
	dropped int64
	ver     uint64
	verTot  [2]int64 // routed, arrivals on ver
	byVer   map[uint64][2]int64
	tally   tally
}

func newRouteTally(sites int, wins *windowed) *routeTally {
	return &routeTally{wins: wins, perSite: make([]int64, sites), byVer: map[uint64][2]int64{}}
}

// byVersion returns the per-version totals including the current version.
func (rt *routeTally) byVersion() map[uint64][2]int64 {
	out := make(map[uint64][2]int64, len(rt.byVer)+1)
	for v, t := range rt.byVer {
		out[v] = t
	}
	if rt.verTot != [2]int64{} {
		t := out[rt.ver]
		out[rt.ver] = [2]int64{t[0] + rt.verTot[0], t[1] + rt.verTot[1]}
	}
	return out
}

var (
	premiumBody  = []byte(`{"class":"premium"}`)
	ordinaryBody = []byte(`{"class":"ordinary"}`)
)

// routeLoop sends closed-loop POST /v1/route: n requests, or until stop.
// Request classes follow the seeded sequence from position first.
func (b *bench) routeLoop(inst *instance, rt *routeTally, n int, stop *atomic.Bool, tr *tracer, first int) {
	rec := newRecorder()
	sites := int64(len(b.f.sites))
	for k := 0; n == 0 || k < n; k++ {
		if stop != nil && stop.Load() {
			return
		}
		prem := b.premium[(first+k)&(len(b.premium)-1)]
		body := ordinaryBody
		if prem {
			body = premiumBody
		}
		start, lat := inst.callAt(rec, http.MethodPost, routeURL, body)
		if tr != nil {
			tr.record("api.route", -1, -1, start, lat)
		}
		rt.lat.add(float64(lat))
		rt.wins.add(float64(lat))
		rt.tally.op(rt.add(rec, prem, sites))
		if stop != nil && k%routeYieldEvery == routeYieldEvery-1 {
			// A network-fed route handler blocks between requests; yielding
			// keeps this never-blocking client from holding its processor for
			// a whole scheduler time slice while a due decide waits for one.
			// Yielding after every request instead keeps the scheduler's
			// global queue never empty, so a processor never steals the
			// goroutines a decide readies on the other one, and decides
			// stall for milliseconds.
			runtime.Gosched()
		}
	}
}

// add checks one route answer: 200, a valid site index when admitted, and
// premium never refused.
func (rt *routeTally) add(rec *recorder, prem bool, sites int64) error {
	if rec.status() != http.StatusOK {
		return fmt.Errorf("route: status %d", rec.status())
	}
	body := rec.buf.Bytes()
	admitted := bytes.Contains(body, []byte(`"admitted": true`))
	idx, ok1 := jsonInt(body, `"siteIndex"`)
	version, ok2 := jsonInt(body, `"version"`)
	if !ok1 || !ok2 {
		return fmt.Errorf("route: malformed answer %s", body)
	}
	if v := uint64(version); v != rt.ver {
		if rt.verTot != [2]int64{} {
			t := rt.byVer[rt.ver]
			rt.byVer[rt.ver] = [2]int64{t[0] + rt.verTot[0], t[1] + rt.verTot[1]}
		}
		rt.ver, rt.verTot = v, [2]int64{}
	}
	rt.verTot[1]++
	switch {
	case admitted && (idx < 0 || idx >= sites):
		return fmt.Errorf("route: site index %d outside [0, %d)", idx, sites)
	case !admitted && prem:
		return fmt.Errorf("route: premium request refused")
	case !admitted:
		rt.dropped++
		return nil
	}
	rt.perSite[idx]++
	rt.verTot[0]++
	return nil
}
