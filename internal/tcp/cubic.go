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

	wMax       float64
	epochStart float64 // <0 = no epoch
	k          float64
	origin     float64
	wEst       float64 // TCP-friendly (Reno-equivalent) window estimate
	ackCount   float64
}

// RFC 8312's constants, with fast convergence always on.
const (
	cubicC    float64 = 0.4 // cubic scaling constant
	cubicBeta float64 = 0.7 // multiplicative decrease factor
)

// NewCubic returns a CUBIC instance with RFC 8312 defaults.
func NewCubic() *CubicAlgo {
	return &CubicAlgo{reno: newRenoState(), epochStart: -1}
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
			a.k = math.Cbrt((a.wMax - a.cwnd) / cubicC)
			a.origin = a.wMax
		} else {
			a.k = 0
			a.origin = a.cwnd
		}
		a.wEst = a.cwnd
		a.ackCount = 0
	}

	t := now - a.epochStart + est.MinRTT
	target := a.origin + float64(cubicC*(t-a.k)*(t-a.k)*(t-a.k))

	// Cubic growth toward target over one RTT.
	if target > a.cwnd {
		a.cwnd += (target - a.cwnd) / a.cwnd
	} else {
		a.cwnd += 0.01 / a.cwnd // minimal growth in the plateau region
	}

	// TCP-friendly region (RFC 8312 §4.2): emulate Reno's average rate.
	a.ackCount++
	a.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) / a.cwnd
	if a.wEst > a.cwnd {
		a.cwnd = a.wEst
	}
}

// OnDupAck implements cc.WindowAlgo.
func (a *CubicAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *CubicAlgo) OnLossEvent(now float64) {
	a.epochStart = -1
	if a.cwnd < a.wMax { // fast convergence: release bandwidth to new flows
		a.wMax = a.cwnd * (2 - cubicBeta) / 2
	} else {
		a.wMax = a.cwnd
	}
	a.cwnd *= cubicBeta
	if a.cwnd < 2 {
		a.cwnd = 2
	}
	a.ssthresh = a.cwnd
}

// OnTimeout implements cc.WindowAlgo.
func (a *CubicAlgo) OnTimeout(now float64) {
	a.epochStart = -1
	a.wMax = a.cwnd
	a.ssthresh = math.Max(a.cwnd*cubicBeta, 2)
	a.cwnd = 1
}
