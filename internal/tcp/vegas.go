package tcp

import "pcc/internal/cc"

// VegasAlgo implements TCP Vegas (Brakmo & Peterson 1995): a delay-based
// protocol that keeps between vegasAlpha and vegasBeta packets queued at the
// bottleneck, adjusting the window once per RTT based on
// diff = cwnd · (1 − baseRTT/RTT).
type VegasAlgo struct {
	reno
	baseRTT    float64
	epochStart float64
	epochMin   float64 // minimum RTT observed this epoch
	epochCnt   int
}

// Vegas's published queue-occupancy thresholds, packets: grow below alpha,
// shrink above beta, and leave slow start above gamma.
const (
	vegasAlpha float64 = 2
	vegasBeta  float64 = 4
	vegasGamma float64 = 1
)

// NewVegas returns a Vegas instance with the published defaults.
func NewVegas() *VegasAlgo {
	return &VegasAlgo{reno: newRenoState(), baseRTT: 1e9, epochStart: -1, epochMin: 1e9}
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
		if diff > vegasGamma {
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
		case diff < vegasAlpha:
			a.cwnd++
		case diff > vegasBeta:
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
