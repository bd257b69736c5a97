// Package cc provides the sender/receiver harnesses that connect congestion
// control algorithms to the simulated network.
//
// Two harness styles cover every protocol in the paper:
//
//   - WindowSender drives window-based algorithms (the TCP family,
//     internal/tcp) with SACK-granularity loss recovery, RTO, and optional
//     packet pacing.
//   - RateSender drives any RateAlgo (PCC is core.PCC; SABUL and PCP are in
//     internal/baseline) with a pacing clock and the same SACK feedback.
//     It calls the algorithm through the interface and names none of them,
//     so this package imports no algorithm.
//
// Both use one Receiver, which acknowledges every data packet with a
// cumulative ACK plus the selective sequence number that triggered it,
// mirroring TCP SACK semantics — the only receiver feedback PCC requires
// (§2.3 "No receiver change"). Its ledger of what arrived is sack.RecvWindow,
// the same bitmap the real-UDP transport.Receiver keeps.
package cc

import "math"

// MSS is the default simulated segment size in bytes, including headers.
// The paper's experiments use 1.5 KB packets throughout; per-flow packet
// sizes are set with the senders' PktSize knob (mixed-MTU scenarios).
const MSS = 1500

// AckSize is the simulated ACK wire size in bytes.
const AckSize = 40

// MinRTO mirrors the common kernel minimum retransmission timeout.
const MinRTO = 0.2

// RTTEstimator keeps the standard SRTT/RTTVAR smoothed estimates
// (RFC 6298) plus the connection minimum.
type RTTEstimator struct {
	SRTT   float64
	RTTVar float64
	MinRTT float64
	n      int
}

// NewRTTEstimator returns an estimator with no samples; SRTT is zero and
// RTO() returns a conservative 1 s until the first sample arrives.
func NewRTTEstimator() *RTTEstimator {
	return &RTTEstimator{MinRTT: math.Inf(1)}
}

// Reset returns the estimator to its no-samples state, as NewRTTEstimator
// built it.
func (r *RTTEstimator) Reset() {
	*r = RTTEstimator{MinRTT: math.Inf(1)}
}

// Sample folds in one RTT measurement.
func (r *RTTEstimator) Sample(rtt float64) {
	if rtt <= 0 {
		return
	}
	if rtt < r.MinRTT {
		r.MinRTT = rtt
	}
	if r.n == 0 {
		r.SRTT = rtt
		r.RTTVar = rtt / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		diff := r.SRTT - rtt
		if diff < 0 {
			diff = -diff
		}
		r.RTTVar = float64((1-beta)*r.RTTVar) + float64(beta*diff)
		r.SRTT = float64((1-alpha)*r.SRTT) + float64(alpha*rtt)
	}
	r.n++
}

// HasSample reports whether at least one RTT measurement was folded in.
func (r *RTTEstimator) HasSample() bool { return r.n > 0 }

// RTO returns the RFC 6298 retransmission timeout with the MinRTO floor.
func (r *RTTEstimator) RTO() float64 {
	if r.n == 0 {
		return 1.0
	}
	rto := r.SRTT + float64(4*r.RTTVar)
	if rto < MinRTO {
		rto = MinRTO
	}
	return rto
}

// WindowAlgo is a window-based congestion control algorithm (the TCP
// family). The harness calls the On* hooks and reads Cwnd (in packets,
// fractional) to clock transmissions.
type WindowAlgo interface {
	Name() string
	// OnAck is invoked for every newly acknowledged packet with the current
	// time, the packet's RTT sample (0 when unavailable, e.g. cumulative
	// coverage or Karn-excluded retransmissions) and the connection RTT
	// estimator.
	OnAck(now, rtt float64, est *RTTEstimator)
	// OnDupAck is invoked for ACKs that advance nothing (kept for
	// algorithms that count duplicates; SACK recovery itself is in the
	// harness).
	OnDupAck()
	// OnLossEvent is invoked once per loss event (at most once per window).
	OnLossEvent(now float64)
	// OnTimeout is invoked when the retransmission timer fires.
	OnTimeout(now float64)
	// Cwnd returns the congestion window in packets.
	Cwnd() float64
}

// RateAlgo is a rate-based congestion control algorithm (PCC, SABUL, PCP).
type RateAlgo interface {
	Name() string
	// Start is called once when the flow begins.
	Start(now float64)
	// Rate returns the current target pacing rate in bytes/s. The harness
	// polls it before every transmission.
	Rate(now float64) float64
	// OnSend notifies the algorithm that seq was (re)transmitted.
	OnSend(seq int64, size int, now float64)
	// OnAck notifies a selective acknowledgment for seq with an RTT sample.
	OnAck(seq int64, rtt float64, now float64)
	// OnLost notifies that the harness declared seq lost (SACK-gap or RTO).
	OnLost(seq int64, now float64)
}
