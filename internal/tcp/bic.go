package tcp

import "pcc/internal/cc"

// BicAlgo implements BIC-TCP (Xu, Harfoush, Rhee 2004), CUBIC's
// predecessor: binary-search increase toward the window at the last loss,
// then max-probing beyond it.
type BicAlgo struct {
	reno
	// SMax/SMin bound the per-RTT increment (defaults 16 / 0.01 packets).
	SMax, SMin float64
	// Beta is the multiplicative decrease (default 0.8).
	Beta float64
	// LowWindow: below this BIC behaves like Reno (default 14).
	LowWindow float64
	// FastConvergence releases bandwidth faster to new flows.
	FastConvergence bool

	wMax float64
}

// NewBic returns a BIC instance with the published defaults.
func NewBic() *BicAlgo {
	return &BicAlgo{reno: newRenoState(), SMax: 16, SMin: 0.01, Beta: 0.8, LowWindow: 14, FastConvergence: true}
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
	if a.cwnd < a.LowWindow {
		a.cwnd += 1 / a.cwnd
		return
	}
	var inc float64 // increment per RTT
	if a.wMax <= 0 {
		inc = a.SMax // no loss yet: probe at full speed
	} else if a.cwnd < a.wMax {
		// Binary search: jump halfway to wMax each RTT.
		inc = (a.wMax - a.cwnd) / 2
	} else {
		// Max probing: grow away from wMax, slowly at first.
		inc = a.cwnd - a.wMax
	}
	if inc > a.SMax {
		inc = a.SMax
	}
	if inc < a.SMin {
		inc = a.SMin
	}
	a.cwnd += inc / a.cwnd
}

// OnDupAck implements cc.WindowAlgo.
func (a *BicAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *BicAlgo) OnLossEvent(now float64) {
	if a.FastConvergence && a.cwnd < a.wMax {
		a.wMax = a.cwnd * (1 + a.Beta) / 2
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
func (a *BicAlgo) OnTimeout(now float64) {
	a.wMax = a.cwnd
	a.ssthresh = a.cwnd * a.Beta
	if a.ssthresh < 2 {
		a.ssthresh = 2
	}
	a.cwnd = 1
}
