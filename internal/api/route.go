package api

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"billcap/internal/core"
	"billcap/internal/dispatch"
	"billcap/internal/forecast"
	"billcap/internal/obs"
)

// defaultDriftRatio is the observed/predicted arrival ratio beyond which the
// data plane triggers an asynchronous re-solve; capperd's -drift-ratio flag
// overrides it.
const defaultDriftRatio = 2.0

// maxBatchRoute bounds one /v1/route/batch request so the closed-form batch
// arithmetic stays in comfortable integer range.
const maxBatchRoute = 1 << 31

// flushRingSize is how many superseded snapshots keep their delta-flush
// state: a route that started on an old table finishes its counter increment
// there, so recently swapped-out snapshots must stay flushable or those
// routes would vanish from billcap_routes_total.
const flushRingSize = 8

// RoutePlane is the server's lock-free request data plane. Each capper
// decision is compiled into an immutable dispatch.Snapshot (routing wheel +
// admission rate) and swapped whole behind an atomic pointer; the hot path —
// handleRoute, handleRouteBatch — loads the pointer and routes with atomic
// fetch-adds, never taking a lock and never solving. The mutex below guards
// only the cold control side: installs, the metric flush ring, and the
// remembered hour input the drift re-solve re-poses.
//
// Drift closes the loop between the planes: every snapshot counts the
// arrivals it observes, and when that count exceeds ratio × the arrivals the
// installed decision was solved for, the plane re-solves asynchronously
// through its own resilient ladder (scaled to the observed rate) and swaps
// in the result — the request path never blocks on the solver. The ladder
// belongs to the plane alone (its System, shared with the server, holds no
// decision state), so a re-solve moves neither the root bases nor the
// ladder state that /v1/decide reads.
type RoutePlane struct {
	snap     atomic.Pointer[dispatch.Snapshot]
	detector atomic.Pointer[forecast.DriftDetector]

	resilient *core.Resilient
	siteNames []string

	routes        *obs.CounterVec // billcap_routes_total{site}
	swaps         *obs.Counter    // billcap_route_table_swaps_total
	driftResolves *obs.Counter    // billcap_route_drift_resolves_total
	dropped       *obs.Counter    // billcap_route_dropped_total

	resolving atomic.Bool

	mu      sync.Mutex
	version uint64
	lastIn  core.HourInput
	haveIn  bool
	ring    []*flushState // newest last; ring[len-1] is the live snapshot
}

// flushState remembers how much of one snapshot's striped counters has been
// flushed into the registry, so each flush adds only the delta.
type flushState struct {
	snap           *dispatch.Snapshot
	flushed        []int64
	droppedFlushed int64
}

func newRoutePlane(resilient *core.Resilient, reg *obs.Registry, siteNames []string, driftRatio float64) (*RoutePlane, error) {
	p := &RoutePlane{
		resilient: resilient,
		siteNames: siteNames,
		routes: reg.CounterVec("billcap_routes_total",
			"Requests routed by the data plane, by destination site.", "site"),
		swaps: reg.Counter("billcap_route_table_swaps_total",
			"Routing snapshots atomically installed (decisions and drift re-solves)."),
		driftResolves: reg.Counter("billcap_route_drift_resolves_total",
			"Asynchronous re-solves triggered by arrival drift beyond the configured ratio."),
		dropped: reg.Counter("billcap_route_dropped_total",
			"Ordinary requests rejected by the data plane's admission pacing."),
	}
	if err := p.SetDriftRatio(driftRatio); err != nil {
		return nil, err
	}
	return p, nil
}

// SetDriftRatio replaces the drift detector: ratio 0 disables drift
// re-solves entirely; any other ratio must be finite and > 1. A replacement
// detector is armed from the currently installed decision, so tightening the
// ratio mid-hour takes effect without waiting for the next install.
func (p *RoutePlane) SetDriftRatio(ratio float64) error {
	if ratio == 0 {
		p.detector.Store(nil)
		return nil
	}
	d, err := forecast.NewDriftDetector(ratio)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.haveIn {
		d.Arm(p.lastIn.TotalLambda)
	}
	p.detector.Store(d)
	p.mu.Unlock()
	return nil
}

// DriftRatio returns the active trip ratio (0 when drift is disabled).
func (p *RoutePlane) DriftRatio() float64 {
	if d := p.detector.Load(); d != nil {
		return d.Ratio()
	}
	return 0
}

// Snapshot returns the live routing snapshot (nil before the first install).
func (p *RoutePlane) Snapshot() *dispatch.Snapshot { return p.snap.Load() }

// Install compiles a decision into a fresh snapshot and swaps it live,
// reporting whether the swap happened. A decision with nothing to route — a
// shed hour allocates zero everywhere — cannot become a table; the previous
// snapshot stays live and Install returns false.
func (p *RoutePlane) Install(in core.HourInput, dec core.Decision) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.installLocked(in, dec)
}

// installLocked is Install with p.mu held.
func (p *RoutePlane) installLocked(in core.HourInput, dec core.Decision) bool {
	arrivedOrdinary := in.TotalLambda - in.PremiumLambda
	if arrivedOrdinary < 0 {
		arrivedOrdinary = 0
	}
	snap, err := dispatch.NewSnapshot(dec.Lambdas(), dec.ServedOrdinary, arrivedOrdinary, in.Hour, p.version+1)
	if err != nil {
		return false
	}
	p.version++
	p.lastIn = in
	p.haveIn = true
	p.ring = append(p.ring, &flushState{snap: snap, flushed: make([]int64, len(p.siteNames))})
	if len(p.ring) > flushRingSize {
		// The evicted snapshot can no longer be flushed; drain it first so
		// any routes it served are not lost from the counters.
		p.flushOneLocked(p.ring[0])
		p.ring = append([]*flushState(nil), p.ring[1:]...)
	}
	if d := p.detector.Load(); d != nil {
		d.Arm(in.TotalLambda)
	}
	p.snap.Store(snap)
	p.swaps.Inc()
	return true
}

// noteArrivals records n observed requests on the live snapshot and, when
// the drift detector trips, starts (at most one) asynchronous re-solve.
func (p *RoutePlane) noteArrivals(snap *dispatch.Snapshot, n int) {
	observed := snap.NoteArrivals(n)
	d := p.detector.Load()
	if d == nil || !d.Exceeded(float64(observed)) {
		return
	}
	if !p.resolving.CompareAndSwap(false, true) {
		return
	}
	go p.resolveDrift(float64(observed))
}

// resolveDrift re-poses the remembered hour at the observed arrival rate,
// solves it through the resilient ladder (never blocking the request path),
// and installs the result through installDrift.
func (p *RoutePlane) resolveDrift(observed float64) {
	defer p.resolving.Store(false)
	d := p.detector.Load()
	if d == nil {
		return
	}
	predicted := d.Predicted()
	p.mu.Lock()
	in, ok, version := p.lastIn, p.haveIn, p.version
	p.mu.Unlock()
	if !ok || predicted <= 0 {
		return
	}
	scaled := in.ScaleLoad(observed / predicted)
	dec := p.resilient.Decide(scaled)
	p.driftResolves.Inc()
	p.installDrift(d, version, scaled, dec)
}

// installDrift installs a drift re-solve of the table at version, unless a
// newer install has superseded that table while the solve ran — the next
// hour's /v1/decide can install while the re-solve is still solving — in
// which case the answer is dropped and the detector, armed by that newer
// install, is left alone. If the answer is uninstallable — the ladder shed
// the hour — the detector is disarmed so the still-climbing arrival count
// cannot re-trip a re-solve loop against an unroutable decision. It reports
// whether the answer was installed.
func (p *RoutePlane) installDrift(d *forecast.DriftDetector, version uint64, in core.HourInput, dec core.Decision) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.version != version {
		return false
	}
	if !p.installLocked(in, dec) {
		d.Arm(0)
		return false
	}
	return true
}

// FlushMetrics folds every tracked snapshot's striped counters into the
// registry (delta since the previous flush); the /metrics handler calls it
// so scrapes always see current routing totals.
func (p *RoutePlane) FlushMetrics() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fs := range p.ring {
		p.flushOneLocked(fs)
	}
}

func (p *RoutePlane) flushOneLocked(fs *flushState) {
	counts := fs.snap.SiteCounts()
	for i, c := range counts {
		if delta := c - fs.flushed[i]; delta > 0 {
			p.routes.With(p.siteNames[i]).Add(float64(delta))
			fs.flushed[i] = c
		}
	}
	if d := fs.snap.DroppedOrdinary(); d > fs.droppedFlushed {
		p.dropped.Add(float64(d - fs.droppedFlushed))
		fs.droppedFlushed = d
	}
}

// RouteRequest is the body of POST /v1/route. Class is "premium",
// "ordinary", or omitted (ordinary).
type RouteRequest struct {
	Class string `json:"class,omitempty"`
}

// RouteResponse is one routed request: which site answers it (absent when
// the admission gate dropped it), under which table.
type RouteResponse struct {
	Admitted  bool   `json:"admitted"`
	Site      string `json:"site,omitempty"`
	SiteIndex int    `json:"siteIndex"`
	Version   uint64 `json:"version"`
	Hour      int    `json:"hour"`
}

// classOf parses the wire class; empty means ordinary.
func classOf(s string) (dispatch.Class, error) {
	switch s {
	case "premium":
		return dispatch.Premium, nil
	case "", "ordinary":
		return dispatch.Ordinary, nil
	}
	return 0, fmt.Errorf("unknown class %q (want \"premium\" or \"ordinary\")", s)
}

// liveSnapshot loads the routing table, answering 503 (and returning nil)
// before the first decision installs one.
func (s *Server) liveSnapshot(w http.ResponseWriter) *dispatch.Snapshot {
	snap := s.route.Snapshot()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("no routing table installed; POST /v1/decide first"))
	}
	return snap
}

// handleRoute answers POST /v1/route: admit-and-route one request on the
// live snapshot. No solving, no locks — two atomic fetch-adds.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req RouteRequest
	if !readJSON(w, r, &req) {
		return
	}
	class, err := classOf(req.Class)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	snap := s.liveSnapshot(w)
	if snap == nil {
		return
	}
	resp := RouteResponse{Version: snap.Version(), Hour: snap.Hour(), SiteIndex: -1}
	if snap.Admit(class) {
		resp.Admitted = true
		resp.SiteIndex = snap.Route()
		resp.Site = s.sites[resp.SiteIndex].Name
	}
	s.route.noteArrivals(snap, 1)
	writeJSON(w, http.StatusOK, resp)
}

// RouteBatchRequest is the body of POST /v1/route/batch: total requests, of
// which premium bypass the admission gate.
type RouteBatchRequest struct {
	Total   int64 `json:"total"`
	Premium int64 `json:"premium"`
}

// SiteRouteCount is one site's share of a routed batch.
type SiteRouteCount struct {
	Site  string `json:"site"`
	Count int64  `json:"count"`
}

// RouteBatchResponse reports how a batch fared: every premium request and
// every admitted ordinary request is routed; the rest are dropped by pacing.
type RouteBatchResponse struct {
	Requests        int64            `json:"requests"`
	Routed          int64            `json:"routed"`
	AdmittedOrd     int64            `json:"admittedOrdinary"`
	DroppedOrd      int64            `json:"droppedOrdinary"`
	Version         uint64           `json:"version"`
	Hour            int              `json:"hour"`
	Sites           []SiteRouteCount `json:"sites"`
	OrdinaryRate    float64          `json:"ordinaryRate"`
	TotalArrivals   uint64           `json:"totalArrivals"`
	PatternRequests int              `json:"patternLen"`
}

// handleRouteBatch answers POST /v1/route/batch: admit-and-route n requests
// with closed-form batch arithmetic — two fetch-adds however large n is.
func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req RouteBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	switch {
	case req.Total <= 0 || req.Total > maxBatchRoute:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("total %d outside [1, %d]", req.Total, int64(maxBatchRoute)))
		return
	case req.Premium < 0 || req.Premium > req.Total:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("premium %d outside [0, total=%d]", req.Premium, req.Total))
		return
	}
	snap := s.liveSnapshot(w)
	if snap == nil {
		return
	}
	ordinary := req.Total - req.Premium
	admitted := int64(snap.AdmitBatch(int(ordinary)))
	counts := snap.RouteBatch(int(req.Premium + admitted))
	arrivals := snap.NoteArrivals(int(req.Total))
	// The arrivals were already recorded above; feed only the drift check.
	s.route.noteArrivals(snap, 0)
	resp := RouteBatchResponse{
		Requests:        req.Total,
		Routed:          req.Premium + admitted,
		AdmittedOrd:     admitted,
		DroppedOrd:      ordinary - admitted,
		Version:         snap.Version(),
		Hour:            snap.Hour(),
		OrdinaryRate:    snap.OrdinaryRate(),
		TotalArrivals:   arrivals,
		PatternRequests: snap.PatternLen(),
	}
	for i, c := range counts {
		resp.Sites = append(resp.Sites, SiteRouteCount{Site: s.sites[i].Name, Count: c})
	}
	writeJSON(w, http.StatusOK, resp)
}

// RouteTableResponse is the introspection view of GET /v1/route/table.
type RouteTableResponse struct {
	Version        uint64             `json:"version"`
	Hour           int                `json:"hour"`
	Weights        map[string]float64 `json:"weights"`
	OrdinaryRate   float64            `json:"ordinaryRate"`
	Routed         uint64             `json:"routed"`
	Arrivals       uint64             `json:"arrivals"`
	PatternLen     int                `json:"patternLen"`
	DriftRatio     float64            `json:"driftRatio"`
	DriftPredicted float64            `json:"driftPredicted"`
}

// handleRouteTable answers GET /v1/route/table with the live snapshot's
// weights and drift posture, for operators checking what the data plane is
// actually doing.
func (s *Server) handleRouteTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	snap := s.liveSnapshot(w)
	if snap == nil {
		return
	}
	weights := snap.Weights()
	resp := RouteTableResponse{
		Version:      snap.Version(),
		Hour:         snap.Hour(),
		Weights:      make(map[string]float64, len(weights)),
		OrdinaryRate: snap.OrdinaryRate(),
		Routed:       snap.Routed(),
		Arrivals:     snap.Arrivals(),
		PatternLen:   snap.PatternLen(),
		DriftRatio:   s.route.DriftRatio(),
	}
	if d := s.route.detector.Load(); d != nil {
		resp.DriftPredicted = d.Predicted()
	}
	for i, wgt := range weights {
		resp.Weights[s.sites[i].Name] = wgt
	}
	writeJSON(w, http.StatusOK, resp)
}
