package tcp

import "pcc/internal/cc"

// BicAlgo implements BIC-TCP (Xu, Harfoush, Rhee 2004), CUBIC's
// predecessor: binary-search increase toward the window at the last loss,
// then max-probing beyond it.
type BicAlgo struct {
	reno
	wMax float64
}

// BIC's published parameters, with fast convergence always on.
const (
	bicSMax      float64 = 16   // largest per-RTT increment, packets
	bicSMin      float64 = 0.01 // smallest per-RTT increment, packets
	bicBeta      float64 = 0.8  // multiplicative decrease
	bicLowWindow float64 = 14   // below this window BIC behaves like Reno
)

// NewBic returns a BIC instance with the published defaults.
func NewBic() *BicAlgo {
	return &BicAlgo{reno: newRenoState()}
}

// Reset restores the state NewBic builds, in place.
func (a *BicAlgo) Reset() { *a = *NewBic() }

// Name implements cc.WindowAlgo.
func (a *BicAlgo) Name() string { return "bic" }

// OnAck implements cc.WindowAlgo.
func (a *BicAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	if a.inSlowStart() {
		a.cwnd++
		return
	}
	if a.cwnd < bicLowWindow {
		a.cwnd += 1 / a.cwnd
		return
	}
	var inc float64 // increment per RTT
	if a.wMax <= 0 {
		inc = bicSMax // no loss yet: probe at full speed
	} else if a.cwnd < a.wMax {
		// Binary search: jump halfway to wMax each RTT.
		inc = (a.wMax - a.cwnd) / 2
	} else {
		// Max probing: grow away from wMax, slowly at first.
		inc = a.cwnd - a.wMax
	}
	if inc > bicSMax {
		inc = bicSMax
	}
	if inc < bicSMin {
		inc = bicSMin
	}
	a.cwnd += inc / a.cwnd
}

// OnDupAck implements cc.WindowAlgo.
func (a *BicAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *BicAlgo) OnLossEvent(now float64) {
	if a.cwnd < a.wMax { // fast convergence: release bandwidth to new flows
		a.wMax = a.cwnd * (1 + bicBeta) / 2
	} else {
		a.wMax = a.cwnd
	}
	a.cwnd *= bicBeta
	if a.cwnd < 2 {
		a.cwnd = 2
	}
	a.ssthresh = a.cwnd
}

// OnTimeout implements cc.WindowAlgo.
func (a *BicAlgo) OnTimeout(now float64) {
	a.wMax = a.cwnd
	a.ssthresh = a.cwnd * bicBeta
	if a.ssthresh < 2 {
		a.ssthresh = 2
	}
	a.cwnd = 1
}
