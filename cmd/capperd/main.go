// Command capperd serves the bill capper as a JSON HTTP control API — what
// a production request-routing tier would call once per invocation period
// (paper §III).
//
// Usage:
//
//	capperd -addr :8080 -variant 1
//
// Endpoints: GET /healthz, GET /readyz, GET /metrics, GET /debug/pprof/,
// GET /v1/sites, GET /v1/policies, POST /v1/decide, POST /v1/decide/batch,
// POST /v1/realize, POST /v1/model, POST /v1/route, POST /v1/route/batch,
// GET /v1/route/table, and with -demand-charge or -battery, GET /v1/tariff.
// Example:
//
//	curl -s localhost:8080/v1/decide -d '{
//	  "totalLambda": 1.5e12, "premiumLambda": 1.2e12,
//	  "demandMW": [170, 190, 150], "budgetUSD": 900
//	}'
//
// With -demand-charge, -battery or -state-dir, decides that commit or are
// journaled run one at a time, each planned from what the last one left.
//
// The daemon exports Prometheus metrics on /metrics, runtime profiling on
// /debug/pprof/, and on SIGINT/SIGTERM flips /readyz to 503 and drains
// in-flight decisions before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"billcap/internal/api"
	"billcap/internal/core"
	"billcap/internal/dcmodel"
	"billcap/internal/pricing"
)

// parseBattery reads the -battery flag: capMWh:maxMW:eff with optional
// :socMWh and :valueUSDPerMWh suffixes. The max charge and discharge rates
// share one figure, matching symmetric grid-scale packs.
func parseBattery(s string) (core.BatterySpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return core.BatterySpec{}, fmt.Errorf("want capMWh:maxMW:eff[:socMWh[:valueUSDPerMWh]], got %q", s)
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return core.BatterySpec{}, fmt.Errorf("field %d of %q: %v", i+1, s, err)
		}
		vals[i] = v
	}
	spec := core.BatterySpec{
		CapacityMWh:    vals[0],
		MaxChargeMW:    vals[1],
		MaxDischargeMW: vals[1],
		Efficiency:     vals[2],
	}
	if len(vals) > 3 {
		spec.SoCMWh = vals[3]
	}
	if len(vals) > 4 {
		spec.ValueUSDPerMWh = vals[4]
	}
	return spec, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	variant := flag.Int("variant", 1, "pricing policy variant (0-3)")
	sites := flag.Int("sites", 3, "number of data centers (3 = the paper's; more = synthetic)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout for in-flight requests")
	deadline := flag.Duration("decide-deadline", 5*time.Second,
		"per-decision solver deadline; an expiring solve answers with its best incumbent (0 = unbounded)")
	decompose := flag.Bool("decompose", false,
		"fleet-scale solving: route hour decisions through Lagrangian dual decomposition when the fleet exceeds -decompose-threshold sites")
	decomposeThreshold := flag.Int("decompose-threshold", 0,
		"fleet size above which -decompose leaves the exact MILP (0 = 20)")
	stateDir := flag.String("state-dir", "",
		"directory for crash-safe state (WAL + snapshots): committed decisions are durably logged and a restart restores the degradation ladder and tariff position instead of zeroing them (empty = stateless)")
	driftRatio := flag.Float64("drift-ratio", 2.0,
		"observed/predicted arrival ratio beyond which the data plane re-solves asynchronously and swaps the routing table (must be > 1; 0 disables drift re-solves)")
	demandCharge := flag.Float64("demand-charge", 0,
		"billing-period demand charge in $/MW-month, billed on each site's peak metered draw (> 0 enables the tariff engine)")
	batterySpec := flag.String("battery", "",
		"per-site battery as capMWh:maxMW:eff[:socMWh[:valueUSDPerMWh]], e.g. 40:15:0.9 — the same spec at every site (enables the tariff engine)")
	flag.Parse()

	if *variant < 0 || *variant > 3 {
		log.Fatal("capperd: variant must be 0..3")
	}
	var dcs []*dcmodel.Site
	var pols []pricing.Policy
	if *sites == 3 {
		dcs = dcmodel.PaperSites()
		pols = pricing.PaperPolicies(pricing.PolicyVariant(*variant))
	} else {
		dcs = dcmodel.SyntheticSites(*sites)
		pols = pricing.Synthetic(*sites)
	}
	srv, err := api.New(dcs, pols, core.Options{
		SolveDeadline: *deadline,

		Decompose:          *decompose,
		DecomposeThreshold: *decomposeThreshold,
	})
	if err != nil {
		log.Fatalf("capperd: %v", err)
	}
	if err := srv.SetDriftRatio(*driftRatio); err != nil {
		log.Fatalf("capperd: %v", err)
	}
	if *demandCharge > 0 || *batterySpec != "" {
		var specs []core.BatterySpec
		if *batterySpec != "" {
			spec, err := parseBattery(*batterySpec)
			if err != nil {
				log.Fatalf("capperd: -battery: %v", err)
			}
			specs = make([]core.BatterySpec, len(dcs))
			for i := range specs {
				specs[i] = spec
			}
		}
		// Enable before EnableState so a restart restores the peak ledger
		// and battery charge into the live tariff position.
		if err := srv.EnableTariff(*demandCharge, specs); err != nil {
			log.Fatalf("capperd: tariff: %v", err)
		}
		log.Printf("capperd: tariff engine: demand charge %.0f $/MW-month, batteries %v, GET /v1/tariff live",
			*demandCharge, *batterySpec != "")
	}
	if *stateDir != "" {
		info, err := srv.EnableState(*stateDir)
		if err != nil {
			log.Fatalf("capperd: state: %v", err)
		}
		if info.Restored {
			log.Printf("capperd: restored state from %s: hour cursor %d, %d WAL entries replayed, %d WAL corruptions truncated, %d snapshot fallbacks",
				*stateDir, info.Hour, info.WALEntriesReplayed, info.WALCorruptions, info.SnapshotFallbacks)
		} else {
			log.Printf("capperd: fresh state directory %s", *stateDir)
		}
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Bound every phase of a connection so a slow or stalled client
		// cannot pin a decision worker: header trickling (Slowloris) dies at
		// ReadHeaderTimeout, a stalled body at ReadTimeout, and idle
		// keep-alives are reaped by IdleTimeout.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Long enough for /debug/pprof/profile's default 30 s CPU window.
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("capperd: listen: %v", err)
	}
	log.Printf("capperd: %d sites, %v, listening on %s", len(dcs), pricing.PolicyVariant(*variant), ln.Addr())
	log.Printf("capperd: timeouts: readHeader=%v read=%v write=%v idle=%v decide=%v drain=%v",
		hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout, *deadline, *drain)
	if *driftRatio > 0 {
		log.Printf("capperd: data plane: /v1/route live, drift re-solve at %.2f× predicted arrivals", *driftRatio)
	} else {
		log.Printf("capperd: data plane: /v1/route live, drift re-solve disabled")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("capperd: serve: %v", err)
	case <-ctx.Done():
		stop()                // restore default signal handling: a second ^C kills immediately
		srv.SetDraining(true) // /readyz → 503 so load balancers stop sending work
		log.Printf("capperd: shutdown signal, draining for up to %v", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("capperd: drain timed out: %v", err)
			_ = hs.Close()
			if cerr := srv.CloseState(); cerr != nil {
				log.Printf("capperd: state close: %v", cerr)
			}
			os.Exit(1)
		}
		if err := srv.CloseState(); err != nil {
			log.Printf("capperd: state close: %v", err)
		}
		log.Printf("capperd: drained, bye")
	}
}
