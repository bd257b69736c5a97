package core

import "math"

// VivaceUtility implements the gradient-based utility of PCC's successor,
// PCC Vivace (NSDI 2018) — included here as the "designing a better
// learning algorithm" extension the paper's §6 calls out:
//
//	u(x) = x^t − b·x·(dRTT/dt) − c·x·L
//
// with x the sending rate (Mbps), t<1 a concave throughput exponent, the
// RTT gradient measured within the MI, and L the loss rate. The concave
// throughput term plus linear penalties make the multi-sender game strictly
// socially concave, giving convergence without the sigmoid cut-off, and the
// RTT-gradient term reacts to queue build-up long before loss occurs.
type VivaceUtility struct{}

// Vivace's coefficients: the throughput exponent t, the latency coefficient
// b (Vivace's published 900 assumes a different rate normalization and pins
// the rate to zero here) and the loss coefficient c.
const (
	vivaceExponent     float64 = 0.9
	vivaceLatencyCoeff float64 = 50
	vivaceLossCoeff    float64 = 11.35
)

// Eval implements Utility.
func (u *VivaceUtility) Eval(m MIStats) float64 {
	x := m.Rate * 8 / 1e6
	if x <= 0 {
		return 0
	}
	l := effectiveLoss(m)
	return math.Pow(x, vivaceExponent) - float64(vivaceLatencyCoeff*x*m.RTTSlope) - float64(vivaceLossCoeff*x*l)
}
