// Package baseline implements the two non-TCP comparators of §4.1.1:
// SABUL/UDT's DAIMD rate control and PCP's packet-train bandwidth probing.
// Both are rate-based senders that hardwire packet-level events to control
// responses — the architectural contrast PCC is evaluated against.
package baseline

import "math"

// Sabul implements UDT's native congestion control (Gu & Grossman), the
// algorithm behind the SABUL scientific-data-transfer tool: a DAIMD scheme
// where every rate-control interval (SYN = 10 ms) without loss increases
// the packet rate by a step derived from the estimated link capacity, and
// each new loss epoch multiplies the sending period by 1.125 (rate ×8/9).
//
// UDT estimates raw link capacity with receiver-side packet pairs; on the
// clean simulated links used here that estimate converges to the true
// bottleneck capacity, so the constructor takes the capacity directly (see
// DESIGN.md substitutions). The resulting behaviour matches the paper's
// description: aggressive overshoot to the capacity estimate, deep
// multiplicative backoff on loss bursts.
type Sabul struct {
	// CapacityHint is the link-capacity estimate (bytes/s) the packet-pair
	// estimator would converge to.
	CapacityHint float64
	// SYN is the rate-control interval (UDT: 10 ms).
	SYN float64
	// Beta is UDT's increase scaling constant (1.5e-6 packets per bit of
	// spare capacity, quantized by decimal order of magnitude).
	Beta float64

	rate       float64 // bytes/s
	lastSyn    float64
	lossInSyn  bool
	lastDecSeq int64 // losses at seq <= this belong to the current epoch
	maxSeqSent int64
	started    bool
}

// NewSabul builds a SABUL/UDT sender with the given capacity estimate.
func NewSabul(capacityHint float64) *Sabul {
	return &Sabul{CapacityHint: capacityHint, SYN: 0.01, Beta: 1.5e-6, rate: 16 * 1500}
}

// Reset restores the state NewSabul(capacityHint) builds, in place (the
// constructor call inlines and its literal stays on the stack).
func (s *Sabul) Reset(capacityHint float64) { *s = *NewSabul(capacityHint) }

// Name implements cc.RateAlgo.
func (s *Sabul) Name() string { return "sabul" }

// Start implements cc.RateAlgo.
func (s *Sabul) Start(now float64) {
	s.started = true
	s.lastSyn = now
}

// advance runs the per-SYN rate update.
func (s *Sabul) advance(now float64) {
	for now-s.lastSyn >= s.SYN {
		s.lastSyn += s.SYN
		if s.lossInSyn {
			s.lossInSyn = false
			continue
		}
		// UDT increase: inc packets per SYN, from spare capacity in bits/s
		// quantized to the next decimal order of magnitude.
		spare := (s.CapacityHint - s.rate) * 8
		var incPkts float64
		if spare <= 0 {
			incPkts = 1.0 / 1500
		} else {
			incPkts = math.Pow(10, math.Ceil(math.Log10(spare))) * s.Beta / 1500
			if incPkts < 1.0/1500 {
				incPkts = 1.0 / 1500
			}
		}
		s.rate += incPkts * 1500 / s.SYN
	}
}

// Rate implements cc.RateAlgo.
func (s *Sabul) Rate(now float64) float64 {
	s.advance(now)
	return s.rate
}

// OnSend implements cc.RateAlgo.
func (s *Sabul) OnSend(seq int64, size int, now float64) {
	if seq > s.maxSeqSent {
		s.maxSeqSent = seq
	}
	s.advance(now)
}

// OnAck implements cc.RateAlgo.
func (s *Sabul) OnAck(seq int64, rtt float64, now float64) { s.advance(now) }

// OnLost implements cc.RateAlgo: UDT's NAK handling. Only the first loss of
// an epoch (a seq beyond the last decrease point) triggers the 1/9 rate
// decrease; further losses in the same flight are absorbed.
func (s *Sabul) OnLost(seq int64, now float64) {
	s.advance(now)
	s.lossInSyn = true
	if seq > s.lastDecSeq {
		s.rate /= 1.125
		if s.rate < 2*1500 {
			s.rate = 2 * 1500
		}
		s.lastDecSeq = s.maxSeqSent
	}
}
