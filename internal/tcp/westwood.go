package tcp

import "pcc/internal/cc"

// WestwoodAlgo implements TCP Westwood+ (Mascolo et al. 2001): Reno-style
// growth, but on loss the window is set from an end-to-end bandwidth
// estimate (BWE · RTTmin) instead of blind halving, giving better behaviour
// over lossy wireless links.
type WestwoodAlgo struct {
	reno

	bwe        float64 // smoothed bandwidth estimate, packets/s
	minRTT     float64 // cached from the estimator on each ack
	epochStart float64
	epochAcked float64 // packets acked this epoch
}

// NewWestwood returns a Westwood+ instance.
func NewWestwood() *WestwoodAlgo {
	return &WestwoodAlgo{reno: newRenoState(), epochStart: -1}
}

// Reset restores the state NewWestwood builds, in place.
func (a *WestwoodAlgo) Reset() { *a = *NewWestwood() }

// Name implements cc.WindowAlgo.
func (a *WestwoodAlgo) Name() string { return "westwood" }

// OnAck implements cc.WindowAlgo.
func (a *WestwoodAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	a.epochAcked++
	if a.epochStart < 0 {
		a.epochStart = now
	}
	if est.HasSample() {
		a.minRTT = est.MinRTT
	}
	srtt := est.SRTT
	if srtt > 0 && now-a.epochStart >= srtt {
		// Westwood+: one bandwidth sample per RTT, EWMA-smoothed.
		sample := a.epochAcked / (now - a.epochStart)
		if a.bwe == 0 {
			a.bwe = sample
		} else {
			a.bwe = float64(0.9*a.bwe) + float64(0.1*sample)
		}
		a.epochStart = now
		a.epochAcked = 0
	}

	if a.inSlowStart() {
		a.cwnd++
	} else {
		a.cwnd += 1 / a.cwnd
	}
}

// OnDupAck implements cc.WindowAlgo.
func (a *WestwoodAlgo) OnDupAck() {}

// bdpWindow converts the bandwidth estimate into a window in packets.
func (a *WestwoodAlgo) bdpWindow() float64 {
	w := a.bwe * a.minRTT
	if w < 2 {
		w = 2
	}
	return w
}

// OnLossEvent implements cc.WindowAlgo: ssthresh = BWE·RTTmin.
func (a *WestwoodAlgo) OnLossEvent(now float64) {
	if a.bwe > 0 && a.minRTT > 0 {
		a.ssthresh = a.bdpWindow()
		if a.cwnd > a.ssthresh {
			a.cwnd = a.ssthresh
		}
	} else {
		a.halve()
	}
}

// OnTimeout implements cc.WindowAlgo.
func (a *WestwoodAlgo) OnTimeout(now float64) {
	if a.bwe > 0 && a.minRTT > 0 {
		a.ssthresh = a.bdpWindow()
	} else {
		a.ssthresh = a.cwnd / 2
		if a.ssthresh < 2 {
			a.ssthresh = 2
		}
	}
	a.cwnd = 1
}
