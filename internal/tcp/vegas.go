package tcp

import "pcc/internal/cc"

// VegasAlgo implements TCP Vegas (Brakmo & Peterson 1995): a delay-based
// protocol that keeps between Alpha and Beta packets queued at the
// bottleneck, adjusting the window once per RTT based on
// diff = cwnd · (1 − baseRTT/RTT).
type VegasAlgo struct {
	reno
	// Alpha/Beta/Gamma are the queue-occupancy thresholds in packets
	// (defaults 2/4/1).
	Alpha, Beta, Gamma float64

	baseRTT    float64
	epochStart float64
	epochMin   float64 // minimum RTT observed this epoch
	epochCnt   int
}

// NewVegas returns a Vegas instance with the published defaults.
func NewVegas() *VegasAlgo {
	return &VegasAlgo{reno: newRenoState(), Alpha: 2, Beta: 4, Gamma: 1, baseRTT: 1e9, epochStart: -1, epochMin: 1e9}
}

// Reset restores the state NewVegas builds, in place.
func (a *VegasAlgo) Reset() { *a = *NewVegas() }

// Name implements cc.WindowAlgo.
func (a *VegasAlgo) Name() string { return "vegas" }

// OnAck implements cc.WindowAlgo.
func (a *VegasAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	if rtt > 0 {
		if rtt < a.baseRTT {
			a.baseRTT = rtt
		}
		if rtt < a.epochMin {
			a.epochMin = rtt
		}
		a.epochCnt++
	}
	if a.epochStart < 0 {
		a.epochStart = now
		return
	}
	srtt := est.SRTT
	if now-a.epochStart < srtt || a.epochCnt < 2 {
		return // evaluate once per RTT
	}

	// diff = expected − actual rate, in packets queued at the bottleneck.
	diff := a.cwnd * (a.epochMin - a.baseRTT) / a.epochMin

	if a.inSlowStart() {
		if diff > a.Gamma {
			// Leave slow start: queue is building.
			a.ssthresh = a.cwnd
			a.cwnd = a.cwnd - diff
			if a.cwnd < 2 {
				a.cwnd = 2
			}
		} else {
			a.cwnd++ // Vegas doubles every other RTT; approximated as +1/RTT here
		}
	} else {
		switch {
		case diff < a.Alpha:
			a.cwnd++
		case diff > a.Beta:
			a.cwnd--
			if a.cwnd < 2 {
				a.cwnd = 2
			}
		}
	}
	a.epochStart = now
	a.epochMin = 1e9
	a.epochCnt = 0
}

// OnDupAck implements cc.WindowAlgo.
func (a *VegasAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *VegasAlgo) OnLossEvent(now float64) { a.halve() }

// OnTimeout implements cc.WindowAlgo.
func (a *VegasAlgo) OnTimeout(now float64) { a.collapse() }
