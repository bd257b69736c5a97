package tcp

import (
	"math"

	"pcc/internal/cc"
)

// HyblaAlgo implements TCP Hybla (Caini & Firrincieli 2004), the satellite
// TCP of §4.1.3: window growth is scaled by ρ = RTT/RTT0 (RTT0 = 25 ms) so
// long-RTT connections grow their windows at the same wall-clock pace as a
// reference 25 ms connection. Slow start adds 2^ρ−1 per ACK; congestion
// avoidance adds ρ²/cwnd per ACK.
type HyblaAlgo struct {
	reno
	// RTT0 is the reference round-trip time (default 25 ms).
	RTT0 float64
	// RhoMax clamps ρ (default 8). Uncapped ρ on a 800 ms path is 32,
	// whose 2^ρ slow-start and ρ² congestion-avoidance steps produce
	// multi-thousand-packet bursts that no real 2014-era stack survived —
	// the paper measures kernel Hybla at ~2 Mbps on exactly such a link
	// (Fig. 6), and an idealized un-clamped SACK sender would instead fill
	// it. The clamp reproduces deployed behaviour.
	RhoMax float64
	rho    float64
}

// NewHybla returns a Hybla instance with the published defaults.
func NewHybla() *HyblaAlgo {
	h := &HyblaAlgo{reno: newRenoState(), RTT0: 0.025, RhoMax: 8, rho: 1}
	// Hybla recommends an initial ssthresh so slow start ends; keep the
	// shared huge default (first loss sets it), matching the Linux module.
	return h
}

// Reset restores the state NewHybla builds, in place.
func (a *HyblaAlgo) Reset() { *a = *NewHybla() }

// Name implements cc.WindowAlgo.
func (a *HyblaAlgo) Name() string { return "hybla" }

// OnAck implements cc.WindowAlgo.
func (a *HyblaAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	if est.HasSample() {
		a.rho = est.SRTT / a.RTT0
		if a.rho < 1 {
			a.rho = 1
		}
		if a.RhoMax > 0 && a.rho > a.RhoMax {
			a.rho = a.RhoMax
		}
	}
	if a.inSlowStart() {
		a.cwnd += math.Pow(2, a.rho) - 1
	} else {
		a.cwnd += a.rho * a.rho / a.cwnd
	}
	// Guard against runaway growth in pathological slow starts.
	if a.cwnd > 1e9 {
		a.cwnd = 1e9
	}
}

// OnDupAck implements cc.WindowAlgo.
func (a *HyblaAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *HyblaAlgo) OnLossEvent(now float64) { a.halve() }

// OnTimeout implements cc.WindowAlgo.
func (a *HyblaAlgo) OnTimeout(now float64) { a.collapse() }
