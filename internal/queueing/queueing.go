// Package queueing models a data center as a G/G/m queue using the
// Allen–Cunneen approximation (paper §IV-B, eq. 3):
//
//	R = 1/µ + (C_A² + C_B²)/2 · ρ^(√(2(n+1))−1) / (nµ − λ)
//
// where µ is the per-server service rate, n the number of active servers,
// λ the arrival rate, ρ = λ/(nµ) the utilization, and C_A², C_B² the squared
// coefficients of variation of inter-arrival times and request sizes.
//
// The paper's local optimizer keeps just enough servers active that ρ ≈ 1,
// under which the correction term ρ^√(2(n+1)) → 1 and the waiting time
// reduces to K/(nµ − λ) with K = (C_A²+C_B²)/2. That simplified form is what
// both the optimizer and the simulator use; the full approximation is also
// provided for model-error studies.
package queueing

import (
	"fmt"
	"math"
)

// Model carries the queueing parameters of one homogeneous data center.
type Model struct {
	// Mu is the service rate of a single server, in requests per hour.
	Mu float64
	// K is (C_A² + C_B²)/2, the variability coefficient of the workload.
	// K = 1 corresponds to M/M/m-like variability.
	K float64
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if m.Mu <= 0 || math.IsNaN(m.Mu) || math.IsInf(m.Mu, 1) {
		return fmt.Errorf("queueing: service rate %v not positive and finite", m.Mu)
	}
	if m.K <= 0 || math.IsNaN(m.K) || math.IsInf(m.K, 1) {
		return fmt.Errorf("queueing: variability coefficient %v not positive and finite", m.K)
	}
	return nil
}

// ResponseTime returns the simplified (ρ≈1) Allen–Cunneen mean response time
// in hours for arrival rate lambda (req/h) on n active servers. It returns
// +Inf when the system is not stable (nµ ≤ λ) or n ≤ 0.
func (m Model) ResponseTime(lambda float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	capacity := float64(n) * m.Mu
	if capacity <= lambda {
		return math.Inf(1)
	}
	return 1/m.Mu + m.K/(capacity-lambda)
}

// ResponseTimeFull returns the full Allen–Cunneen approximation with the
// Sakasegawa waiting-probability correction ρ^(√(2(n+1))−1), in hours. The
// exponent makes the formula exact for M/M/1 and keeps it within a few
// percent of Erlang-C across server counts (validated against the
// discrete-event simulator in this package).
func (m Model) ResponseTimeFull(lambda float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	capacity := float64(n) * m.Mu
	if capacity <= lambda {
		return math.Inf(1)
	}
	rho := lambda / capacity
	corr := math.Pow(rho, math.Sqrt(2*float64(n+1))-1)
	return 1/m.Mu + m.K*corr/(capacity-lambda)
}

// MinServersFrac returns the (continuous) minimal number of servers for which
// the simplified response time meets the set point rs (hours):
//
//	n ≥ λ/µ + K / (µ·(rs − 1/µ))
//
// This is affine in λ, which is what lets the cost model enter a MILP with
// continuous workload variables. It returns an error when rs ≤ 1/µ: no
// server count can beat the bare service time.
func (m Model) MinServersFrac(lambda, rs float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if lambda < 0 {
		return 0, fmt.Errorf("queueing: negative arrival rate %v", lambda)
	}
	slack := rs - 1/m.Mu
	if slack <= 0 {
		return 0, fmt.Errorf("queueing: SLA %v h not achievable with service time %v h", rs, 1/m.Mu)
	}
	return lambda/m.Mu + m.K/(m.Mu*slack), nil
}

// MinServers returns the minimal integer server count meeting the set point,
// the decision the paper's per-site local optimizer makes every hour.
func (m Model) MinServers(lambda, rs float64) (int, error) {
	frac, err := m.MinServersFrac(lambda, rs)
	if err != nil {
		return 0, err
	}
	n := int(math.Ceil(frac - 1e-9))
	if n < 1 {
		n = 1
	}
	return n, nil
}

// ServerCoefficients returns (alpha, beta) of the affine relaxation
// n(λ) = alpha·λ + beta used inside the optimizer.
func (m Model) ServerCoefficients(rs float64) (alpha, beta float64, err error) {
	beta, err = m.MinServersFrac(0, rs)
	if err != nil {
		return 0, 0, err
	}
	return 1 / m.Mu, beta, nil
}

// Utilization returns ρ = λ/(nµ), clamped to [0, 1] for reporting.
func (m Model) Utilization(lambda float64, n int) float64 {
	if n <= 0 || m.Mu <= 0 {
		return 0
	}
	u := lambda / (float64(n) * m.Mu)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// MaxThroughput returns the largest arrival rate that maxServers servers can
// carry while meeting the set point rs under the simplified model:
// λ ≤ maxServers·µ − K/(rs − 1/µ).
func (m Model) MaxThroughput(maxServers int, rs float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	slack := rs - 1/m.Mu
	if slack <= 0 {
		return 0, fmt.Errorf("queueing: SLA %v h not achievable with service time %v h", rs, 1/m.Mu)
	}
	lam := float64(maxServers)*m.Mu - m.K/slack
	if lam < 0 {
		lam = 0
	}
	return lam, nil
}
