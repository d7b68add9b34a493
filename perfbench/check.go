package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"billcap/internal/audit"
	"billcap/internal/battery"
	"billcap/internal/core"
	"billcap/internal/pricing"
)

// reply is the part of a /v1/decide answer the checks and the per-layer
// counts read.
type reply struct {
	Step             string  `json:"step"`
	Degraded         string  `json:"degraded"`
	Served           float64 `json:"served"`
	ServedPremium    float64 `json:"servedPremium"`
	ServedOrdinary   float64 `json:"servedOrdinary"`
	PredictedCostUSD float64 `json:"predictedCostUSD"`
	SettlementUSD    float64 `json:"settlementUSD"`
	Sites            []struct {
		Lambda         float64 `json:"lambda"`
		PowerMW        float64 `json:"powerMW"`
		PriceUSDPerMWh float64 `json:"priceUSDPerMWh"`
		CostUSD        float64 `json:"costUSD"`
		On             bool    `json:"on"`
		GridMW         float64 `json:"gridMW"`
		ChargeMW       float64 `json:"chargeMW"`
		DischargeMW    float64 `json:"dischargeMW"`
		EnergyUSD      float64 `json:"energyUSD"`
		DemandUSD      float64 `json:"demandUSD"`
	} `json:"sites"`
	SolverNodes              int     `json:"solverNodes"`
	SolverSolves             int     `json:"solverSolves"`
	SolverPivots             int     `json:"solverPivots"`
	SolverIncumbents         int     `json:"solverIncumbents"`
	SolverWallMS             float64 `json:"solverWallMS"`
	SolverPresolveFixed      int     `json:"solverPresolveFixed"`
	SolverLPRefactorizations int     `json:"solverLPRefactorizations"`
	SolverLPBasisUpdates     int     `json:"solverLPBasisUpdates"`
	SolverDecompIterations   int     `json:"solverDecompIterations"`
	SolverDecompGap          float64 `json:"solverDecompGap"`

	overBudget bool // a degraded answer over its budget (see degradedOverBudget)
}

// position mirrors the server's tariff position — the demand-charge peak
// ledger and the battery bank — from the answers it served, the way the
// server commits them, so each answer can be audited against the position
// it was decided from.
type position struct {
	b      *bench
	ledger *pricing.PeakLedger
	bats   []*battery.Battery
}

func newPosition(b *bench) *position {
	pos := &position{b: b}
	if !b.w.tariff {
		return pos
	}
	n := len(b.f.sites)
	pos.ledger = pricing.NewPeakLedger(n)
	for i := 0; i < n; i++ {
		bat, err := battery.New(batCapacityMWh, batMaxMW, batMaxMW, batEfficiency)
		if err != nil {
			panic(err) // constant, valid parameters
		}
		pos.bats = append(pos.bats, bat)
	}
	return pos
}

// input is the hour as the server poses it to the controller: the request
// plus, on tariff workloads, the live demand-charge rate, peaks and battery
// charge.
func (pos *position) input(in hourInput) core.HourInput {
	hin := core.HourInput{
		Hour: in.hour, TotalLambda: in.total, PremiumLambda: in.premium,
		DemandMW: in.demand, BudgetUSD: in.budget,
	}
	if pos.ledger == nil {
		return hin
	}
	hin.DemandChargeUSDPerMW = demandChargeUSDPerMW
	hin.PeakMW = pos.ledger.Peaks()
	hin.Batteries = batterySpecs(len(pos.bats))
	for i, bat := range pos.bats {
		hin.Batteries[i].SoCMWh = bat.SoC()
		hin.Batteries[i].ValueUSDPerMWh = pos.b.f.audit[i].meanPrice
	}
	return hin
}

// commit applies a served answer: battery actions move stored energy and
// the ledger ratchets on the metered draw.
func (pos *position) commit(r reply) {
	if pos.ledger == nil {
		return
	}
	grids := make([]float64, len(r.Sites))
	for i, s := range r.Sites {
		g := pos.bats[i].Discharge(math.Min(s.DischargeMW, s.PowerMW))
		c := pos.bats[i].Charge(s.ChargeMW)
		grids[i] = s.PowerMW + c - g
	}
	pos.ledger.Observe(grids)
}

// checkDecide judges one decide answer against the hour and the mirrored
// position, then commits it to the position.
func (b *bench) checkDecide(pos *position, in hourInput, d decided) (reply, error) {
	var r reply
	if d.status != http.StatusOK {
		return r, fmt.Errorf("hour %d: decide status %d: %s", in.hour, d.status, d.body)
	}
	if err := json.Unmarshal(d.body, &r); err != nil {
		return r, fmt.Errorf("hour %d: decide answer: %w", in.hour, err)
	}
	hin := pos.input(in)
	defer pos.commit(r)
	r.overBudget = b.degradedOverBudget(hin, r)
	if len(r.Sites) != len(b.f.sites) {
		return r, fmt.Errorf("hour %d: %d site allocations for %d sites", in.hour, len(r.Sites), len(b.f.sites))
	}
	sum := 0.0
	for _, s := range r.Sites {
		sum += s.Lambda
	}
	tol := 1e-6 * (1 + in.total)
	switch {
	case math.Abs(sum-r.Served) > tol:
		return r, fmt.Errorf("hour %d: site loads sum to %v, served %v", in.hour, sum, r.Served)
	case r.Served > in.total+tol:
		return r, fmt.Errorf("hour %d: served %v of %v arrivals", in.hour, r.Served, in.total)
	case r.Step != "over-capacity" && r.ServedPremium < in.premium-tol:
		return r, fmt.Errorf("hour %d: %s step served %v of %v premium", in.hour, r.Step, r.ServedPremium, in.premium)
	}
	if err := b.audit(hin, r); err != nil {
		return r, fmt.Errorf("hour %d: %w", in.hour, err)
	}
	return r, nil
}

// degradedOverBudget reports whether a degraded answer overran its budget.
// The ladder promises caps and SLA limits on every rung, not the budget, so
// the audit exempts degraded answers from the budget row and the overrun is
// counted instead (core.degraded_over_budget).
func (b *bench) degradedOverBudget(hin core.HourInput, r reply) bool {
	return r.Degraded != "" && r.PredictedCostUSD > hin.BudgetUSD*(1+1e-6)+1e-6 &&
		r.Step != "premium-only" && r.Step != "over-capacity"
}

// audit runs audit.Check on a served answer with site models the benchmark
// re-derived from dcmodel and pricing.
func (b *bench) audit(hin core.HourInput, r reply) error {
	sites := make([]audit.Site, len(b.f.audit))
	for i, m := range b.f.audit {
		s := audit.Site{
			MaxLambda: m.maxLambda, MWPerLambda: m.mwPerLambda, IdleMW: m.idleMW,
			PowerCapMW: m.capMW, SlackMW: m.slackMW, DemandMW: hin.DemandMW[i], Price: m.price,
			DemandRateUSDPerMW: hin.DemandChargeUSDPerMW,
		}
		if i < len(hin.PeakMW) {
			s.PeakMW = hin.PeakMW[i]
		}
		if i < len(hin.Batteries) {
			bat := hin.Batteries[i]
			s.BatCapacityMWh, s.BatMaxChargeMW, s.BatMaxDischargeMW = bat.CapacityMWh, bat.MaxChargeMW, bat.MaxDischargeMW
			s.BatEfficiency, s.BatSoCMWh = bat.Efficiency, bat.SoCMWh
		}
		sites[i] = s
	}
	claims := make([]audit.Claim, len(r.Sites))
	for i, s := range r.Sites {
		claims[i] = audit.Claim{
			Lambda: s.Lambda, PowerMW: s.PowerMW, Rate: s.PriceUSDPerMWh, CostUSD: s.CostUSD, On: s.On,
			GridMW: s.GridMW, ChargeMW: s.ChargeMW, DischargeMW: s.DischargeMW,
			EnergyUSD: s.EnergyUSD, DemandUSD: s.DemandUSD,
		}
	}
	return audit.Check(sites, claims, audit.Input{
		TotalLambda: hin.TotalLambda, PremiumLambda: hin.PremiumLambda, BudgetUSD: hin.BudgetUSD,
		SettlementUSD: r.SettlementUSD,
		ServeAll:      r.Step == "cost-min",
		BudgetExempt:  r.Step == "premium-only" || r.Step == "over-capacity" || r.Degraded != "",
	})
}

// finishPass checks a pass's answers in hour order, folds its samples into
// the phase, and checks that routing conserved requests.
func (b *bench) finishPass(p *phase, inst *instance, decs []decided, rts []*routeTally, bt *batchTally, first bool) error {
	pos := newPosition(b)
	var bill, servedOrd, arrivedOrd float64
	for _, d := range decs {
		in := b.f.hours[d.hour]
		r, err := b.checkDecide(pos, in, d)
		p.tally.op(err)
		if err != nil {
			continue
		}
		// The per-layer counts read only the solver fields. Keeping every
		// answer's site allocations would grow the heap the program's
		// garbage collector marks, and max_rss_mb, with the benchmark's own
		// data: on fleet-decomp by tens of MB.
		r.Sites = nil
		p.replies = append(p.replies, r)
		if r.Degraded != "" {
			p.degraded++
		}
		bill += r.PredictedCostUSD
		servedOrd += r.ServedOrdinary
		arrivedOrd += in.total - in.premium
	}
	for _, rt := range rts {
		p.routeLat.merge(&rt.lat)
		p.tally.merge(rt.tally)
	}
	if bt != nil {
		p.tally.merge(bt.tally)
	}
	scrape, err := inst.scrape()
	if err != nil {
		return err
	}
	p.tally.op(b.checkConservation(inst, scrape, rts, bt))
	if first {
		p.bill, p.servedOrd, p.arrivedOrd = bill, servedOrd, arrivedOrd
		p.pass0, p.scrape0 = decs, scrape
	}
	return nil
}

// checkConservation checks that routing conserved requests: the per-site
// totals in billcap_routes_total and billcap_route_dropped_total equal what
// the routed answers said, and the live table's routed and arrival counts
// equal the answers that carried its version.
func (b *bench) checkConservation(inst *instance, scrape map[string]float64, rts []*routeTally, bt *batchTally) error {
	want := make([]int64, len(b.f.sites))
	var dropped int64
	byVer := map[uint64][2]int64{}
	add := func(m map[uint64][2]int64) {
		for v, t := range m {
			byVer[v] = [2]int64{byVer[v][0] + t[0], byVer[v][1] + t[1]}
		}
	}
	for _, rt := range rts {
		for i, c := range rt.perSite {
			want[i] += c
		}
		dropped += rt.dropped
		add(rt.byVersion())
	}
	if bt != nil {
		for i, c := range bt.perSite {
			want[i] += c
		}
		dropped += bt.dropped
		add(bt.byVersion)
	}
	for i, dc := range b.f.sites {
		got := scrape[`billcap_routes_total{site="`+dc.Name+`"}`]
		if got != float64(want[i]) {
			return fmt.Errorf("billcap_routes_total{site=%q} = %v, answers routed %d", dc.Name, got, want[i])
		}
	}
	if got := scrape["billcap_route_dropped_total"]; got != float64(dropped) {
		return fmt.Errorf("billcap_route_dropped_total = %v, answers dropped %d", got, dropped)
	}
	body, err := inst.get(routeTableURL)
	if err != nil {
		return err
	}
	var table struct {
		Version  uint64 `json:"version"`
		Routed   int64  `json:"routed"`
		Arrivals int64  `json:"arrivals"`
	}
	if err := json.Unmarshal(body, &table); err != nil {
		return fmt.Errorf("route table: %w", err)
	}
	if t := byVer[table.Version]; t[0] != table.Routed || t[1] != table.Arrivals {
		return fmt.Errorf("route table v%d: routed %d arrivals %d, answers say %d and %d",
			table.Version, table.Routed, table.Arrivals, t[0], t[1])
	}
	return nil
}

// scrape serves GET /metrics and parses the exposition into series → value.
func (in *instance) scrape() (map[string]float64, error) {
	body, err := in.get(metricsURL)
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// parseMetrics reads Prometheus text exposition: one "series value" per
// non-comment line, the series keeping its label block.
func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// jsonInt reads the integer after the first occurrence of key (a quoted
// name) in a JSON answer, without decoding the whole answer: the route path
// is fast enough that a full decode would dominate the client's share.
func jsonInt(b []byte, key string) (int64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	v, _, ok := intAfter(b[i+len(key):])
	return v, ok
}

// jsonInts reads the integers after the first n occurrences of key.
func jsonInts(b []byte, key string, n int) ([]int64, bool) {
	out := make([]int64, 0, n)
	k := []byte(key)
	for len(out) < n {
		i := bytes.Index(b, k)
		if i < 0 {
			return nil, false
		}
		v, rest, ok := intAfter(b[i+len(k):])
		if !ok {
			return nil, false
		}
		out = append(out, v)
		b = rest
	}
	return out, true
}

// intAfter parses `: <int>` at the start of b.
func intAfter(b []byte) (int64, []byte, bool) {
	i := 0
	for i < len(b) && (b[i] == ':' || b[i] == ' ') {
		i++
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(b[i:j]), 10, 64)
	return v, b[j:], err == nil
}
