package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"billcap/internal/api"
	"billcap/internal/core"
)

// Endpoints the benchmark drives, parsed once.
var (
	decideURL     = mustURL("/v1/decide")
	routeURL      = mustURL("/v1/route")
	routeBatchURL = mustURL("/v1/route/batch")
	routeTableURL = mustURL("/v1/route/table")
	metricsURL    = mustURL("/metrics")
)

func mustURL(path string) *url.URL {
	u, err := url.Parse(path)
	if err != nil {
		panic(err)
	}
	return u
}

// recorder is one client's reusable request and in-memory
// http.ResponseWriter: the handler runs in-process through ServeHTTP, with
// no sockets, and the client allocates nothing per request so the timings
// and the garbage are the program's.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer

	req    http.Request
	reqHdr http.Header
	body   bodyReader
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newRecorder() *recorder {
	return &recorder{hdr: http.Header{}, reqHdr: http.Header{"Content-Type": {"application/json"}}}
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

// status is the response code, 200 when the handler wrote without setting one.
func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// request resets the recorder for a new exchange and returns the request,
// built the way net/http hands one to a handler.
func (r *recorder) request(method string, u *url.URL, body []byte) *http.Request {
	clear(r.hdr)
	r.code = 0
	r.buf.Reset()
	r.body.Reset(body)
	r.req = http.Request{
		Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: r.reqHdr, Host: "perfbench", RemoteAddr: "192.0.2.1:4242",
		RequestURI: u.Path, Body: &r.body, ContentLength: int64(len(body)),
	}
	return &r.req
}

// instance is one set-up program: the server and, for stateful workloads,
// its state directory.
type instance struct {
	srv *api.Server
	h   http.Handler
	dir string
}

// callAt serves one request on rec and returns when the handler started and
// its wall time.
func (in *instance) callAt(rec *recorder, method string, u *url.URL, body []byte) (time.Time, time.Duration) {
	req := rec.request(method, u, body)
	t0 := time.Now()
	in.h.ServeHTTP(rec, req)
	return t0, time.Since(t0)
}

// get serves a GET and returns a copy of the body, failing on a non-200.
func (in *instance) get(u *url.URL) ([]byte, error) {
	rec := newRecorder()
	in.callAt(rec, http.MethodGet, u, nil)
	if rec.status() != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", u.Path, rec.status(), rec.buf.Bytes())
	}
	return bytes.Clone(rec.buf.Bytes()), nil
}

// setup builds the program the way capperd does for this workload —
// api.New, EnableTariff, EnableState on a fresh directory — and installs the
// first routing table with the hour-0 decide. It returns the set-up time and
// the hour-0 answer, which the checks judge like any other.
func (b *bench) setup() (*instance, time.Duration, decided, error) {
	b.setups++
	var dir string
	if b.w.state {
		dir = filepath.Join(b.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), b.setups))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, decided{}, err
		}
	}
	in0 := b.f.hours[0]
	t0 := time.Now()
	srv, err := api.New(b.f.sites, b.f.policies, b.options())
	if err != nil {
		return nil, 0, decided{}, err
	}
	inst := &instance{srv: srv, h: srv.Handler(), dir: dir}
	if b.w.tariff {
		if err := srv.EnableTariff(demandChargeUSDPerMW, batterySpecs(len(b.f.sites))); err != nil {
			return nil, 0, decided{}, err
		}
	}
	if b.w.state {
		if _, err := srv.EnableState(dir); err != nil {
			return nil, 0, decided{}, err
		}
	}
	rec := newRecorder()
	_, lat := inst.callAt(rec, http.MethodPost, decideURL, in0.body)
	elapsed := time.Since(t0)
	return inst, elapsed, decided{hour: 0, status: rec.status(), body: bytes.Clone(rec.buf.Bytes()), lat: lat, span: -1}, nil
}

// options are capperd's solver settings for the workload: its default
// 5 s decision deadline, the solve cache, the default branch-and-bound
// workers (GOMAXPROCS), and decomposition where the workload asks for it.
func (b *bench) options() core.Options {
	return core.Options{
		SolveDeadline: 5 * time.Second,
		SolverCache:   true,
		Decompose:     b.w.decompose,
	}
}

// close releases the instance: the final checkpoint of a stateful server,
// then its directory.
func (in *instance) close() error {
	err := in.srv.CloseState()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}
