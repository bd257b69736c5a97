package tcp

import (
	"math"

	"pcc/internal/cc"
)

// CubicAlgo implements TCP CUBIC (Ha, Rhee, Xu 2008; RFC 8312): the window
// grows as a cubic function of time since the last loss, with a
// TCP-friendly lower envelope and fast convergence.
type CubicAlgo struct {
	reno

	// C is the cubic scaling constant (RFC 8312 default 0.4).
	C float64
	// Beta is the multiplicative decrease factor (RFC 8312 default 0.7).
	Beta float64
	// FastConvergence releases bandwidth faster to new flows.
	FastConvergence bool

	wMax       float64
	epochStart float64 // <0 = no epoch
	k          float64
	origin     float64
	wEst       float64 // TCP-friendly (Reno-equivalent) window estimate
	ackCount   float64
}

// NewCubic returns a CUBIC instance with RFC 8312 defaults.
func NewCubic() *CubicAlgo {
	return &CubicAlgo{reno: newRenoState(), C: 0.4, Beta: 0.7, FastConvergence: true, epochStart: -1}
}

// Reset restores the state NewCubic builds, in place.
func (a *CubicAlgo) Reset() { *a = *NewCubic() }

// Name implements cc.WindowAlgo.
func (a *CubicAlgo) Name() string { return "cubic" }

// OnAck implements cc.WindowAlgo.
func (a *CubicAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	if a.inSlowStart() {
		a.cwnd++
		return
	}
	srtt := est.SRTT
	if srtt <= 0 {
		srtt = 0.1
	}
	if a.epochStart < 0 {
		a.epochStart = now
		if a.cwnd < a.wMax {
			a.k = math.Cbrt((a.wMax - a.cwnd) / a.C)
			a.origin = a.wMax
		} else {
			a.k = 0
			a.origin = a.cwnd
		}
		a.wEst = a.cwnd
		a.ackCount = 0
	}

	t := now - a.epochStart + est.MinRTT
	target := a.origin + float64(a.C*(t-a.k)*(t-a.k)*(t-a.k))

	// Cubic growth toward target over one RTT.
	if target > a.cwnd {
		a.cwnd += (target - a.cwnd) / a.cwnd
	} else {
		a.cwnd += 0.01 / a.cwnd // minimal growth in the plateau region
	}

	// TCP-friendly region (RFC 8312 §4.2): emulate Reno's average rate.
	a.ackCount++
	a.wEst += 3 * (1 - a.Beta) / (1 + a.Beta) / a.cwnd
	if a.wEst > a.cwnd {
		a.cwnd = a.wEst
	}
}

// OnDupAck implements cc.WindowAlgo.
func (a *CubicAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *CubicAlgo) OnLossEvent(now float64) {
	a.epochStart = -1
	if a.FastConvergence && a.cwnd < a.wMax {
		a.wMax = a.cwnd * (2 - a.Beta) / 2
	} else {
		a.wMax = a.cwnd
	}
	a.cwnd *= a.Beta
	if a.cwnd < 2 {
		a.cwnd = 2
	}
	a.ssthresh = a.cwnd
}

// OnTimeout implements cc.WindowAlgo.
func (a *CubicAlgo) OnTimeout(now float64) {
	a.epochStart = -1
	a.wMax = a.cwnd
	a.ssthresh = math.Max(a.cwnd*a.Beta, 2)
	a.cwnd = 1
}
