package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
	"billcap/internal/state"
)

// serve runs one request through the handler in-process.
func serve(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			panic(err) // request types always marshal
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(buf)))
	return rec
}

// serveBytes is serve that fails the test on a non-200 and returns the body.
func serveBytes(t *testing.T, h http.Handler, method, path string, body any) []byte {
	t.Helper()
	rec := serve(h, method, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// sealedLines reads a state file's CRC-framed records and returns each
// record's payload.
func sealedLines(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var r struct {
			V json.RawMessage `json:"v"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r.V)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// zeroWallTime clears the one timing field durable ladder state carries.
func zeroWallTime(ls *core.ResilientState) {
	if ls != nil && ls.LastGood != nil {
		ls.LastGood.Solver.WallTime = 0
	}
}

// solverEffortKeys are the answer keys that count the search's work and
// move when the search takes another path to the same answer.
var solverEffortKeys = []string{"solverNodes", "solverPivots", "solverIncumbents", "solverLPBasisUpdates", "solverCutoffs"}

// zeroSolverEffort clears the ladder state's counterparts of
// solverEffortKeys.
func zeroSolverEffort(ls *core.ResilientState) {
	if ls != nil && ls.LastGood != nil {
		st := &ls.LastGood.Solver
		st.Nodes, st.LPIterations, st.Incumbents, st.LPBasisUpdates, st.Cutoffs = 0, 0, 0, 0, 0
	}
}

// TestDaemonGolden pins the daemon's committed hour bit for bit: 72 seeded
// resilient hours (some capped, some with a site down) on a server with a
// demand charge, batteries and a state directory. The digest covers every
// answer without its solverWallMS, GET /v1/tariff after each hour, and what
// the directory holds after CloseState: the entries of every WAL segment in
// order and the newest checkpoint, solver wall times zeroed. It held when
// the WAL was split into segments written by a background checkpoint
// writer, and it was recorded before the daemon's
// hour ran through internal/controller, so it shows the shared controller
// changed no answer, no position and no durable byte. It was re-recorded
// once, when the ladder state's solver stats lost their presolve and
// warm-start counters: those two keys, always 0 here, were the only bytes
// that moved.
func TestDaemonGolden(t *testing.T) {
	const want = uint64(0x3b46bc3e3a276ccb)
	dir := t.TempDir()
	s, err := New(dcmodel.PaperSites(), pricing.PaperPolicies(pricing.Policy1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableTariff(1500, tariffSpecs(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableState(dir); err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.CloseState()
		}
	}()
	h := s.Handler()

	digest := fnv.New64a()
	rng := rand.New(rand.NewSource(18))
	steps := map[string]int{}
	for hour := 0; hour < 72; hour++ {
		total := 0.8e12 + 1.2e12*rng.Float64()
		req := DecideRequest{
			TotalLambda:   total,
			PremiumLambda: 0.8 * total,
			DemandMW:      []float64{120 + 280*rng.Float64(), 120 + 280*rng.Float64(), 120 + 280*rng.Float64()},
			Hour:          hour,
			Resilient:     true,
		}
		if rng.Float64() < 0.5 {
			b := 300 + 1200*rng.Float64()
			req.BudgetUSD = &b
		}
		if rng.Float64() < 0.1 {
			req.Down = make([]bool, 3)
			req.Down[rng.Intn(3)] = true
		}
		var answer map[string]any
		if err := json.Unmarshal(serveBytes(t, h, http.MethodPost, "/v1/decide", req), &answer); err != nil {
			t.Fatal(err)
		}
		if answer["degraded"] != nil {
			t.Fatalf("hour %d degraded to %v", hour, answer["degraded"])
		}
		steps[answer["step"].(string)]++
		delete(answer, "solverWallMS")
		body, err := json.Marshal(answer)
		if err != nil {
			t.Fatal(err)
		}
		digest.Write(body)
		digest.Write(serveBytes(t, h, http.MethodGet, "/v1/tariff", nil))
	}

	// CloseState drains the checkpoint writer; the final checkpoint it
	// writes repeats the hour-72 one byte for byte.
	closed = true
	if err := s.CloseState(); err != nil {
		t.Fatal(err)
	}
	entries, segs, newest := digestStateDir(t, digest, dir, nil)

	t.Logf("steps %v, newest checkpoint %s, %d WAL entries in %d segments", steps, newest, entries, segs)
	if got := digest.Sum64(); got != want {
		t.Errorf("daemon digest %#x, want %#x", got, want)
	}
}

// digestStateDir feeds digest what a closed state directory holds: the
// entries of every WAL segment in order and then the newest checkpoint's
// file name and payload, each re-marshaled with its solver wall time
// zeroed and, when scrub is not nil, scrubbed by it. It returns the entry
// and segment counts and the newest name.
func digestStateDir(t *testing.T, digest hash.Hash64, dir string, scrub func(*core.ResilientState)) (entries, segments int, newest string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		for _, line := range sealedLines(t, seg) {
			var e state.Entry
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatal(err)
			}
			zeroWallTime(e.Resilient)
			if scrub != nil {
				scrub(e.Resilient)
			}
			body, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			digest.Write(body)
			entries++
		}
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "snap-") && strings.HasSuffix(de.Name(), ".json") {
			snaps = append(snaps, de.Name())
		}
	}
	sort.Strings(snaps)
	if len(snaps) == 0 {
		t.Fatal("no checkpoint after 72 hours")
	}
	newest = snaps[len(snaps)-1]
	digest.Write([]byte(newest))
	var cp state.Checkpoint
	if err := json.Unmarshal(sealedLines(t, filepath.Join(dir, newest))[0], &cp); err != nil {
		t.Fatal(err)
	}
	zeroWallTime(cp.Resilient)
	if scrub != nil {
		scrub(cp.Resilient)
	}
	body, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	digest.Write(body)
	return entries, len(segs), newest
}

// TestPlainDaemonGolden pins a plain server's hours bit for bit: 72 seeded
// resilient hours on 13 synthetic sites, with no tariff position but a
// state directory, some hours capped and one with a site down. The digest
// covers every answer without its solverWallMS and what the directory holds
// after CloseState (see digestStateDir). The ladder carries each solve
// kind's root basis from hour to hour, so the answers' pivot and warm-start
// counts are pinned too. A second digest leaves out the search's effort
// counters (solverEffortKeys) and pins everything else.
//
// The effort digest was recorded when step 1 first stopped at its budget
// cutoff, which moved only the effort counters of the 13 over-budget hours.
// The stripped digest was recorded before that change, so it shows the
// cutoff moved no answer, no warm-start count and no other durable byte.
func TestPlainDaemonGolden(t *testing.T) {
	const (
		want         = uint64(0xa6d7cc05a1657c64)
		wantStripped = uint64(0x8d57612a12b7f8c2)
	)
	const n = 13
	dir := t.TempDir()
	s, err := New(dcmodel.SyntheticSites(n), pricing.Synthetic(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableState(dir); err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.CloseState()
		}
	}()
	h := s.Handler()

	digest, stripped := fnv.New64a(), fnv.New64a()
	rng := rand.New(rand.NewSource(25))
	steps := map[string]int{}
	var solver core.SolverStats
	for hour := 0; hour < 72; hour++ {
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(hour%24)/24)
		total := 1.4e12 * n / 3 * diurnal * (0.9 + 0.2*rng.Float64())
		req := DecideRequest{
			TotalLambda:   total,
			PremiumLambda: total * (0.3 + 0.2*rng.Float64()),
			DemandMW:      make([]float64, n),
			Hour:          hour,
			Resilient:     true,
		}
		for i := range req.DemandMW {
			req.DemandMW[i] = []float64{150, 160, 140}[i%3] + 7*float64(i/3) + 60*rng.Float64()
		}
		if hour%3 == 1 {
			b := 300 + 3000*rng.Float64()
			req.BudgetUSD = &b
		}
		if hour == 40 {
			req.Down = make([]bool, n)
			req.Down[5] = true
		}
		var answer map[string]any
		if err := json.Unmarshal(serveBytes(t, h, http.MethodPost, "/v1/decide", req), &answer); err != nil {
			t.Fatal(err)
		}
		if answer["degraded"] != nil {
			t.Fatalf("hour %d degraded to %v", hour, answer["degraded"])
		}
		steps[answer["step"].(string)]++
		solver.Accumulate(s.Resilient().Snapshot().LastGood.Solver)
		delete(answer, "solverWallMS")
		body, err := json.Marshal(answer)
		if err != nil {
			t.Fatal(err)
		}
		digest.Write(body)
		for _, k := range solverEffortKeys {
			delete(answer, k)
		}
		if body, err = json.Marshal(answer); err != nil {
			t.Fatal(err)
		}
		stripped.Write(body)
	}

	closed = true
	if err := s.CloseState(); err != nil {
		t.Fatal(err)
	}
	entries, segs, newest := digestStateDir(t, digest, dir, nil)
	digestStateDir(t, stripped, dir, zeroSolverEffort)

	t.Logf("steps %v, newest checkpoint %s, %d WAL entries in %d segments, %d of %d roots warm, %d step-1 cutoffs",
		steps, newest, entries, segs, solver.WarmStarts, solver.Solves, solver.Cutoffs)
	if solver.WarmStarts*10 < solver.Solves*9 {
		t.Errorf("%d of %d root LPs finished from a carried basis, want at least 90%%", solver.WarmStarts, solver.Solves)
	}
	if got := digest.Sum64(); got != want {
		t.Errorf("plain daemon digest %#x, want %#x", got, want)
	}
	if got := stripped.Sum64(); got != wantStripped {
		t.Errorf("plain daemon digest without solver effort %#x, want %#x", got, wantStripped)
	}
}
