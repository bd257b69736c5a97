// Package core implements the paper's primary contribution:
// Performance-oriented Congestion Control (PCC).
//
// A PCC sender slices time into monitor intervals (MIs), sends at one rate
// per MI, aggregates SACK feedback into per-MI performance metrics
// (throughput, loss rate, average RTT), scores each MI with a pluggable
// utility function, and runs the §3.2 learning control loop — Starting,
// Decision Making (with randomized controlled trials) and Rate Adjusting
// states — over the observed (rate, utility) pairs.
//
// The package is deliberately substrate-free: it depends on neither the
// simulator nor on sockets. internal/cc adapts it to the simulated network
// and internal/transport runs the very same controller over real UDP, which
// is the deployability story of §2.3.
//
// A product that feeds an addition or subtraction is wrapped in an explicit
// float64(...) conversion wherever an arm64 build fused the two. The Go spec
// lets a compiler fuse x*y+z into one multiply-add (arm64 does; amd64 never
// does), which skips the product's rounding and so moves MI accounting and
// utility values between architectures; an explicit conversion forces that
// rounding, and compiles to nothing on amd64. CI's arm64 build counts the
// fused ops left in the module.
package core

import "math"

// MIStats are the aggregated performance metrics of one monitor interval
// (§3.1): what the Monitor module hands to the utility function.
type MIStats struct {
	// Rate is the actual sending rate achieved during the MI, bytes/s.
	Rate float64
	// TargetRate is the rate the controller asked for, bytes/s.
	TargetRate float64
	// Throughput is the acknowledged-data rate over the MI, bytes/s.
	Throughput float64
	// LossRate is lost/sent for packets launched in the MI, in [0,1].
	LossRate float64
	// AvgRTT is the mean RTT of the MI's acknowledged packets, seconds
	// (0 when nothing was acknowledged).
	AvgRTT float64
	// PrevAvgRTT is the previous MI's AvgRTT, for utilities that penalize
	// latency growth (§4.4.1).
	PrevAvgRTT float64
	// MinRTT is the connection's minimum observed RTT (propagation
	// estimate), the anchor for queueing-delay penalties.
	MinRTT float64
	// RTTSlope is the within-MI RTT trend d(RTT)/dt (seconds per second):
	// positive when this MI's sending rate is building queue, negative
	// when the queue is draining. Unlike AvgRTT it is insensitive to how
	// much standing queue already exists, which makes it the reliable
	// discriminator between the two RCT trial rates for latency-sensitive
	// utilities.
	RTTSlope float64
	// Duration is the realized MI length, seconds.
	Duration float64
	// Sent and Acked count the MI's data packets.
	Sent, Acked int64
}

// Utility scores a monitor interval. Higher is better. Implementations must
// be pure functions of the stats so the controller's comparisons are
// meaningful.
type Utility interface {
	Eval(m MIStats) float64
}

// sigmoid is the paper's cut-off function: Sigmoid(y) = 1/(1+e^(αy)).
// For α ≫ 0 it is ≈1 for y < 0 and falls rapidly toward 0 for y > 0.
func sigmoid(y, alpha float64) float64 {
	// Clamp the exponent to avoid overflow; e^±50 already saturates.
	e := alpha * y
	if e > 50 {
		return 0
	}
	if e < -50 {
		return 1
	}
	return 1 / (1 + math.Exp(e))
}

// effectiveLoss de-noises the per-MI loss measurement for knee-based
// utilities: a single lost packet is forgiven. At realistic MI sizes
// (hundreds of packets) this shifts the measured rate by well under the 5%
// knee's width, but during startup — where an MI holds only ~10 packets and
// one random loss would read as 10% and trip the sigmoid cliff — it removes
// the quantization noise that would otherwise trap the learner at low rates
// on lossy links (§4.1.4's scenario).
func effectiveLoss(m MIStats) float64 {
	if m.Sent <= 0 {
		return m.LossRate
	}
	lost := float64(m.LossRate * float64(m.Sent))
	adj := (lost - 1) / float64(m.Sent)
	if adj < 0 {
		return 0
	}
	return adj
}

// The §2.2 sigmoid's parameters, shared by the safe and latency utilities:
// sigmoidAlpha is the steepness (Theorem 1 requires α ≥ max{2.2(n−1), 100})
// and lossCap the knee, the loss rate the sigmoid caps.
const (
	sigmoidAlpha float64 = 100
	lossCap      float64 = 0.05
)

// SafeUtility is the §2.2 "safe" general-purpose utility:
//
//	u(x) = T·Sigmoid(L−0.05) − x·L
//
// with T the throughput, L the loss rate and x the sending rate, α = 100.
// The sigmoid caps the worst-case loss rate near 5% and Theorem 1 proves
// competing senders using it converge to a fair equilibrium.
type SafeUtility struct {
	// NoForgiveness disables the single-loss de-noising (ablation only;
	// see effectiveLoss).
	NoForgiveness bool
}

// Eval implements Utility. Rates are scored in Mbps so the two terms share
// the paper's scale.
func (u *SafeUtility) Eval(m MIStats) float64 {
	t := m.Throughput * 8 / 1e6
	x := m.Rate * 8 / 1e6
	l := effectiveLoss(m)
	if u.NoForgiveness {
		l = m.LossRate
	}
	return float64(t*sigmoid(l-lossCap, sigmoidAlpha)) - float64(x*l)
}

// LossResilientUtility is the §4.4.2 utility u = Throughput·(1−L): with
// per-flow fair queueing isolating flows, a sender may endure arbitrary
// random loss (theoretically up to ~100%) and still keep sending at its
// fair share.
type LossResilientUtility struct{}

// Eval implements Utility.
func (LossResilientUtility) Eval(m MIStats) float64 {
	return (m.Throughput * 8 / 1e6) * (1 - m.LossRate)
}

// LatencyUtility is the §4.4.1 interactive-flow utility
//
//	u = (T·Sigmoid(L−0.05)·(RTTmin/RTT_n)^k·e^(−g·dRTT/dt) − x·L) / RTT_n
//
// expressing "maximize power (throughput/delay) and avoid latency
// increase". With FQ in the network it keeps self-inflicted queueing near
// zero, making CoDel redundant (Fig. 17).
//
// Relative to the paper's formula (which uses RTT_{n−1}/RTT_n with k=1 and
// no slope term) this strengthens the latency signal in two ways, both
// needed for the learner to actually hold the queue near zero (see
// DESIGN.md §4):
//
//   - (RTTmin/RTT_n)^k anchors the penalty to the propagation delay, so the
//     ±ε trials are sharply distinguishable while the queue is small;
//   - the within-MI RTT-slope penalty e^(−g·dRTT/dt) stays informative as
//     the standing queue deepens, where the ratio terms flatten out — the
//     same insight that later drove PCC Vivace's gradient utility.
//
// It runs with the calibrated k = 1 (so the ratio term is RTTmin/RTT_n
// itself) and g = latencySlopeGain, and the safe utility's sigmoid.
type LatencyUtility struct{}

// latencySlopeGain is g, the weight of the within-MI RTT-slope penalty.
const latencySlopeGain float64 = 30

// Eval implements Utility.
func (u *LatencyUtility) Eval(m MIStats) float64 {
	rtt := m.AvgRTT
	if rtt <= 0 {
		rtt = m.PrevAvgRTT
	}
	if rtt <= 0 {
		rtt = 1e-3
	}
	anchor := m.MinRTT
	if anchor <= 0 || anchor > rtt {
		anchor = rtt
	}
	t := m.Throughput * 8 / 1e6
	x := m.Rate * 8 / 1e6
	l := effectiveLoss(m)
	// The slope penalty is exponential so two trial MIs remain
	// distinguishable no matter how steep the build-up is (a linear
	// penalty clamped at a floor saturates, letting runaway up-moves look
	// identical to mild ones).
	slopeFactor := math.Exp(-latencySlopeGain * m.RTTSlope)
	if slopeFactor > 2 {
		slopeFactor = 2
	}
	return (float64(t*sigmoid(l-lossCap, sigmoidAlpha)*(anchor/rtt)*slopeFactor) - float64(x*l)) / rtt
}
