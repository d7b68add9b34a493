// Package dcmodel models a single data center site: its server fleet,
// network fabric and cooling plant, and the local optimizer that keeps the
// minimum number of servers active for the response-time set point
// (paper §IV-B).
//
// Two views of the same physics are provided:
//
//   - the discrete view (Evaluate) with integer server and switch counts —
//     what the simulator bills against the real price policy, and
//   - the affine view (Affine, Plans) p(λ) = A·λ + B in MW per server
//     class — what enters the MILP, exact up to the integrality of servers
//     and switches.
//
// The affine server term is exact in expectation: total server power is
// n·Idle + (Peak−Idle)·λ/µ because the busy fractions of all active servers
// sum to λ/µ regardless of how load is spread.
//
// A site runs either one homogeneous fleet (MaxServers, IdleW, PeakW,
// Queue.Mu) or several server classes (Classes) — the heterogeneous
// hardware of the paper's first future-work item (§IX). A multi-class site's
// local optimizer fills classes in efficiency order, so its power is a
// piecewise-affine function of load; a one-class site is the single piece.
package dcmodel

import (
	"fmt"
	"math"
	"sort"

	"billcap/internal/fattree"
	"billcap/internal/queueing"
)

// ServerClass is one homogeneous server pool of a multi-class site.
type ServerClass struct {
	// Name identifies the hardware generation, e.g. "athlon-2.0".
	Name string
	// Count is the number of installed servers of this class.
	Count int
	// Mu is the per-server service rate in requests/hour.
	Mu float64
	// IdleW and PeakW are the class's per-server power law endpoints.
	IdleW, PeakW float64
}

// Site describes one data center and its regional power-market parameters.
type Site struct {
	// Name identifies the site in reports, e.g. "DC1-B".
	Name string
	// MaxServers is the installed (homogeneous) server count.
	MaxServers int
	// IdleW and PeakW are per-server power at 0% and 100% utilization:
	// sp(u) = IdleW + (PeakW−IdleW)·u (paper §IV-B: sp = I + D·u).
	IdleW, PeakW float64
	// Queue carries the per-server service rate (req/h) and workload
	// variability of the G/G/m model.
	Queue queueing.Model
	// RespSLAHours is the response-time set point Rs in hours.
	RespSLAHours float64
	// Net is the k-ary fat-tree fabric; EdgeW/AggW/CoreW are per-switch
	// powers in watts (switches are not energy proportional).
	Net                fattree.Topology
	EdgeW, AggW, CoreW float64
	// CoolingEff is the cooling efficiency coe: heat removed per watt spent
	// on cooling, so cooling power = IT power / coe.
	CoolingEff float64
	// PowerCapMW is the supplier-imposed cap Ps on the site's draw.
	PowerCapMW float64
	// Classes, when set, make the site heterogeneous: MaxServers, IdleW,
	// PeakW and Queue.Mu stay zero, and every class shares Queue.K, the SLA,
	// the fabric, the cooling plant and the cap.
	Classes []ServerClass
}

// classes returns the site's server pools: its Classes, or the one pool its
// homogeneous fields describe.
func (s *Site) classes() []ServerClass {
	if len(s.Classes) > 0 {
		return s.Classes
	}
	return []ServerClass{{Name: s.Name, Count: s.MaxServers, Mu: s.Queue.Mu, IdleW: s.IdleW, PeakW: s.PeakW}}
}

// queue returns the G/G/m model of one class.
func (s *Site) queue(c ServerClass) queueing.Model { return queueing.Model{Mu: c.Mu, K: s.Queue.K} }

// usable reports whether class c can meet the SLA at any fleet size.
func (s *Site) usable(c ServerClass) bool { return s.RespSLAHours > 1/c.Mu }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate reports the first configuration error, if any.
func (s *Site) Validate() error {
	multi := len(s.Classes) > 0
	if multi && (s.MaxServers != 0 || s.IdleW != 0 || s.PeakW != 0 || s.Queue.Mu != 0) {
		return fmt.Errorf("dcmodel %s: server classes mixed with MaxServers/IdleW/PeakW/Queue.Mu", s.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SLA", s.RespSLAHours}, {"switch power", s.EdgeW}, {"switch power", s.AggW},
		{"switch power", s.CoreW}, {"cooling efficiency", s.CoolingEff}, {"power cap", s.PowerCapMW},
	} {
		if !finite(f.v) {
			return fmt.Errorf("dcmodel %s: non-finite %s %v", s.Name, f.name, f.v)
		}
	}
	total, fastest := 0, math.Inf(1)
	for _, c := range s.classes() {
		cls, count := "", "MaxServers"
		if multi {
			cls, count = c.Name+": ", c.Name+": count"
		}
		switch {
		case c.Count <= 0:
			return fmt.Errorf("dcmodel %s: %s %d", s.Name, count, c.Count)
		case !finite(c.IdleW) || !finite(c.PeakW) || c.IdleW < 0 || c.PeakW < c.IdleW:
			return fmt.Errorf("dcmodel %s: %sserver power law idle=%v peak=%v", s.Name, cls, c.IdleW, c.PeakW)
		}
		if err := s.queue(c).Validate(); err != nil {
			return fmt.Errorf("dcmodel %s: %s%w", s.Name, cls, err)
		}
		total += c.Count
		fastest = math.Min(fastest, 1/c.Mu)
	}
	switch {
	case s.CoolingEff <= 0:
		return fmt.Errorf("dcmodel %s: cooling efficiency %v", s.Name, s.CoolingEff)
	case s.PowerCapMW <= 0:
		return fmt.Errorf("dcmodel %s: power cap %v MW", s.Name, s.PowerCapMW)
	case s.EdgeW < 0 || s.AggW < 0 || s.CoreW < 0:
		return fmt.Errorf("dcmodel %s: negative switch power", s.Name)
	case s.Net.Capacity() < total:
		return fmt.Errorf("dcmodel %s: fat tree k=%d holds %d hosts < %d servers",
			s.Name, s.Net.K, s.Net.Capacity(), total)
	case s.RespSLAHours <= fastest:
		return fmt.Errorf("dcmodel %s: SLA %v h not above service time %v h",
			s.Name, s.RespSLAHours, fastest)
	}
	return nil
}

// PowerBreakdown is the discrete evaluation of a site at one arrival rate.
type PowerBreakdown struct {
	Servers     int
	Switches    fattree.ActiveSwitches
	Utilization float64
	ServerW     float64
	NetworkW    float64
	CoolingW    float64
	// RespTimeHours is the mean response time (load-weighted across
	// classes); 0 when off.
	RespTimeHours float64
	// ClassLambda is the load on each class, keyed like Plans; nil for a
	// one-class site.
	ClassLambda []float64
}

// TotalW returns server + network + cooling power in watts.
func (b PowerBreakdown) TotalW() float64 { return b.ServerW + b.NetworkW + b.CoolingW }

// TotalMW returns the total in megawatts.
func (b PowerBreakdown) TotalMW() float64 { return b.TotalW() / 1e6 }

// Evaluate runs the local optimizer for arrival rate lambda (req/h) and
// returns the realized discrete power breakdown: classes fill in efficiency
// order up to their SLA ceilings (the last one takes the rest), each with
// the fewest servers that meet the SLA. lambda == 0 powers the site off
// entirely. An error is returned when the load exceeds what the installed
// servers can carry within the SLA.
func (s *Site) Evaluate(lambda float64) (PowerBreakdown, error) {
	if lambda < 0 {
		return PowerBreakdown{}, fmt.Errorf("dcmodel %s: negative load %v", s.Name, lambda)
	}
	if lambda == 0 {
		return PowerBreakdown{}, nil
	}
	plans, err := s.plans(FullPower)
	if err != nil {
		return PowerBreakdown{}, err
	}
	var b PowerBreakdown
	if len(s.Classes) > 0 {
		b.ClassLambda = make([]float64, len(plans))
	}
	for k, take := range Fill(plans, lambda) {
		if take == 0 {
			continue
		}
		c, q := plans[k].Class, s.queue(plans[k].Class)
		n, err := q.MinServers(take, s.RespSLAHours)
		if err != nil {
			return PowerBreakdown{}, fmt.Errorf("dcmodel %s: %w", s.Name, err)
		}
		if n > c.Count {
			return PowerBreakdown{}, fmt.Errorf("dcmodel %s: load %v needs %d servers > %d installed",
				s.Name, lambda, n, c.Count)
		}
		if b.ClassLambda != nil {
			b.ClassLambda[k] = take
		}
		b.Servers += n
		// Busy fractions across the class sum to λ/µ exactly.
		b.ServerW += float64(n)*c.IdleW + (c.PeakW-c.IdleW)*take/c.Mu
		if u, rt := q.Utilization(take, n), q.ResponseTime(take, n); take == lambda {
			b.Utilization, b.RespTimeHours = u, rt
		} else {
			b.Utilization += u * take / lambda
			b.RespTimeHours += rt * take / lambda
		}
	}
	b.Switches = s.Net.Active(b.Servers)
	b.NetworkW = float64(b.Switches.Edge)*s.EdgeW + float64(b.Switches.Agg)*s.AggW + float64(b.Switches.Core)*s.CoreW
	b.CoolingW = (b.ServerW + b.NetworkW) / s.CoolingEff
	return b, nil
}

// TotalPowerMW is Evaluate reduced to the total draw in MW.
func (s *Site) TotalPowerMW(lambda float64) (float64, error) {
	b, err := s.Evaluate(lambda)
	if err != nil {
		return 0, err
	}
	return b.TotalMW(), nil
}

// ModelScope selects which power components an optimizer's site model
// includes. The paper's contribution models everything; the Min-Only
// baseline and the A1 ablation model servers only.
type ModelScope int

// Model scopes.
const (
	// FullPower includes servers, network and cooling.
	FullPower ModelScope = iota
	// ServerOnly ignores network and cooling (Min-Only baseline view).
	ServerOnly
)

// AffineModel is the optimizer's linear view of site power:
// p(λ) = A·λ + B megawatts for λ > 0 (and exactly 0 at λ = 0 when off).
type AffineModel struct {
	A float64 // MW per (req/h)
	B float64 // MW fixed cost while the site is on
}

// PowerMW evaluates the affine model.
func (m AffineModel) PowerMW(lambda float64) float64 { return m.A*lambda + m.B }

// ClassPlan is the optimizer's affine model of one usable server class.
type ClassPlan struct {
	Class ServerClass
	// MaxLambda is the class's SLA-feasible throughput ceiling.
	MaxLambda float64
	// AffineModel is the class's power while it is on.
	AffineModel
}

// Plans returns the affine model of every class that can meet the SLA, in
// efficiency order (increasing full-power MW per req/h, whatever the
// scope). A one-class site has one plan: Affine(scope) with the class's
// SLA ceiling.
func (s *Site) Plans(scope ModelScope) ([]ClassPlan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.plans(scope)
}

// plans is Plans without validation.
func (s *Site) plans(scope ModelScope) ([]ClassPlan, error) {
	var out []ClassPlan
	for _, c := range s.classes() {
		if !s.usable(c) {
			continue
		}
		maxLam, err := s.queue(c).MaxThroughput(c.Count, s.RespSLAHours)
		if err != nil {
			return nil, fmt.Errorf("dcmodel %s: %w", s.Name, err)
		}
		m, err := s.classAffine(c, FullPower)
		if err != nil {
			return nil, err
		}
		out = append(out, ClassPlan{Class: c, MaxLambda: maxLam, AffineModel: m})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dcmodel %s: no server class meets the %v h SLA", s.Name, s.RespSLAHours)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].A < out[j].A })
	if scope != FullPower {
		for i := range out {
			m, err := s.classAffine(out[i].Class, scope)
			if err != nil {
				return nil, err
			}
			out[i].AffineModel = m
		}
	}
	return out, nil
}

// classAffine derives one class's affine power model from the site physics.
func (s *Site) classAffine(c ServerClass, scope ModelScope) (AffineModel, error) {
	alpha, beta, err := s.queue(c).ServerCoefficients(s.RespSLAHours)
	if err != nil {
		return AffineModel{}, fmt.Errorf("dcmodel %s: %w", s.Name, err)
	}
	// Server fleet: n(λ) = αλ + β active servers, busy work λ/µ.
	aW := c.PeakW * alpha // = Idle·α + (Peak−Idle)/µ since α = 1/µ
	bW := c.IdleW * beta
	if scope == FullPower {
		eRate, aRate, cRate := s.Net.Rates()
		unitNet := eRate*s.EdgeW + aRate*s.AggW + cRate*s.CoreW // W per server
		aW += unitNet * alpha
		bW += unitNet * beta
		overhead := 1 + 1/s.CoolingEff
		aW *= overhead
		bW *= overhead
	}
	return AffineModel{A: aW / 1e6, B: bW / 1e6}, nil
}

// Affine derives the optimizer's affine power model of a one-class site. A
// multi-class site has one model per class: use Plans.
func (s *Site) Affine(scope ModelScope) (AffineModel, error) {
	if len(s.Classes) > 0 {
		return AffineModel{}, fmt.Errorf("dcmodel %s: %d server classes have no single affine model", s.Name, len(s.Classes))
	}
	plans, err := s.Plans(scope)
	if err != nil {
		return AffineModel{}, err
	}
	return plans[0].AffineModel, nil
}

// Fill splits lambda across plans the way the local optimizer loads them:
// each class up to its SLA ceiling in plan order, the last one taking the
// rest.
func Fill(plans []ClassPlan, lambda float64) []float64 {
	out := make([]float64, len(plans))
	remaining := lambda
	for k, pl := range plans {
		take := remaining
		if k < len(plans)-1 {
			take = math.Min(remaining, pl.MaxLambda)
		}
		if take <= 0 {
			break
		}
		out[k] = take
		remaining -= take
	}
	return out
}

// RoundingSlackMW bounds how far the discrete realization can sit above the
// affine model: one extra server of the heaviest class, one pod of
// aggregation switches, one core and one edge switch — all cooled.
// Optimizers must leave this headroom below power caps and price-step
// boundaries.
func (s *Site) RoundingSlackMW() float64 {
	peak := s.PeakW
	for _, c := range s.Classes {
		peak = math.Max(peak, c.PeakW)
	}
	return (peak + float64(s.Net.K/2)*s.AggW + s.CoreW + s.EdgeW) *
		(1 + 1/s.CoolingEff) / 1e6
}

// SLAMaxLambda returns the most load the installed servers carry within
// the SLA, ignoring the power cap: the sum of the usable classes' ceilings.
func (s *Site) SLAMaxLambda() (float64, error) {
	plans, err := s.plans(FullPower)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, pl := range plans {
		total += pl.MaxLambda
	}
	return total, nil
}

// MaxLambda returns the largest arrival rate the site can accept, limited by
// both the installed servers (SLA feasibility) and the power cap under the
// full affine model, with a small safety margin to absorb the integer
// rounding the simulator applies. It walks the classes in efficiency order
// until the cap binds.
func (s *Site) MaxLambda() (float64, error) {
	plans, err := s.Plans(FullPower)
	if err != nil {
		return 0, err
	}
	slackMW := s.RoundingSlackMW()
	total, power := 0.0, 0.0
	for _, pl := range plans {
		byPower := math.Inf(1)
		if pl.A > 0 {
			byPower = (s.PowerCapMW - slackMW - power - pl.B) / pl.A
		}
		take := math.Min(pl.MaxLambda, byPower)
		if take < pl.MaxLambda {
			// The cap binds inside this class.
			return total + math.Max(take, 0), nil
		}
		total += take
		power += pl.PowerMW(take)
	}
	return total, nil
}
