package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts), or
// NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// scaled converts durations to float samples in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// latHist is a latency histogram for the route path, where a run has too
// many samples to keep: buckets 0.5 % wide from 10 ns up, with quantiles
// interpolated inside the bucket, so a quantile is within 0.5 % of the exact
// sample quantile.
type latHist struct {
	counts []uint64
	n      uint64
}

const histGrowth = 1.005

func (h *latHist) add(ns float64) {
	i := int(math.Log(max(ns, 10)/10) / math.Log(histGrowth))
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *latHist) merge(o *latHist) {
	if len(o.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(o.counts)-len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, NaN for no samples.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo := 10 * math.Pow(histGrowth, float64(i))
		return lo + (target-cum)/float64(c)*lo*(histGrowth-1)
	}
	return 10 * math.Pow(histGrowth, float64(len(h.counts)))
}

// Window sizes: how many consecutive routes, and decides, one window holds.
const (
	routeWindow  = 8192
	decideWindow = 64
)

// windowed splits latencies, in the order they were measured, into windows
// of a fixed size and keeps each full window's p50 and p99. A run's
// percentiles are these averaged over its windows: a shared host switches
// between a fast and a slow speed every second or so, and a mean moves with
// the share of time spent slow where a percentile of all samples pooled jumps
// from one speed to the other.
type windowed struct {
	size int
	cur  latHist
	done [][2]float64 // ns
}

func (w *windowed) add(ns float64) {
	w.cur.add(ns)
	if w.cur.n == uint64(w.size) {
		w.done = append(w.done, [2]float64{w.cur.quantile(0.5), w.cur.quantile(0.99)})
		w.cur.reset()
	}
}

// mean returns the windows' mean p50 and p99 in ns, and false when no window
// is full.
func (w *windowed) mean() (p50, p99 float64, ok bool) {
	n := float64(len(w.done))
	for _, d := range w.done {
		p50 += d[0] / n
		p99 += d[1] / n
	}
	return p50, p99, len(w.done) > 0
}

// memWindow accumulates Go runtime activity over the timed sections of a
// phase, read with runtime.ReadMemStats between (never inside) timings.
type memWindow struct {
	before     runtime.MemStats
	allocBytes uint64
	gcCycles   uint32
	pauses     []float64 // ns
}

func (m *memWindow) begin() { runtime.ReadMemStats(&m.before) }

func (m *memWindow) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.allocBytes += now.TotalAlloc - m.before.TotalAlloc
	n := now.NumGC - m.before.NumGC
	m.gcCycles += n
	for k := uint32(0); k < n && k < uint32(len(now.PauseNs)); k++ {
		m.pauses = append(m.pauses, float64(now.PauseNs[(now.NumGC-1-k)%uint32(len(now.PauseNs))]))
	}
}

// maxRSSMB is the process's peak resident set (VmHWM) in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment describes where a result was measured.
type environment struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	StateFS    string `json:"stateDirFS"`
}

func newEnvironment(stateDir string) environment {
	return environment{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		StateFS:    fsType(stateDir),
	}
}

// gitCommit reads HEAD from .git in the working directory without running
// git; a checkout without history reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x65735546: "fuse", 0x01021997: "9p", 0x6969: "nfs",
		0x2fc12fc1: "zfs", 0xf2f52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
