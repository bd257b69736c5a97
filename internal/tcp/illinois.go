package tcp

import "pcc/internal/cc"

// IllinoisAlgo implements TCP Illinois (Liu, Başar, Srikant 2008): a
// loss-based protocol that modulates its additive-increase step α and
// multiplicative-decrease factor β using measured queueing delay. Small
// delay → aggressive increase (α up to 10) and gentle decrease (β = 1/8);
// large delay → conservative increase and β up to 1/2.
type IllinoisAlgo struct {
	reno

	baseRTT float64 // minimum observed RTT (propagation estimate)
	maxRTT  float64 // maximum observed RTT
	sumRTT  float64
	cntRTT  int
	avgRTT  float64
	acked   float64 // acks since last per-window delay update
}

// Illinois's published bounds on α and β.
const (
	illinoisAlphaMax float64 = 10
	illinoisAlphaMin float64 = 0.3
	illinoisBetaMax  float64 = 0.5
	illinoisBetaMin  float64 = 0.125
)

// NewIllinois returns an Illinois instance with the published defaults.
func NewIllinois() *IllinoisAlgo {
	return &IllinoisAlgo{reno: newRenoState(), baseRTT: 1e9}
}

// Reset restores the state NewIllinois builds, in place.
func (a *IllinoisAlgo) Reset() { *a = *NewIllinois() }

// Name implements cc.WindowAlgo.
func (a *IllinoisAlgo) Name() string { return "illinois" }

// alphaBeta derives the current (α, β) pair from average queueing delay.
func (a *IllinoisAlgo) alphaBeta() (alpha, beta float64) {
	dm := a.maxRTT - a.baseRTT // maximum queueing delay seen
	if dm <= 0 || a.avgRTT <= 0 {
		return illinoisAlphaMax, illinoisBetaMin
	}
	da := a.avgRTT - a.baseRTT
	if da < 0 {
		da = 0
	}
	d1 := dm / 100
	if da <= d1 {
		alpha = illinoisAlphaMax
	} else {
		// alpha = k1/(k2+da) with alpha(d1)=αmax, alpha(dm)=αmin.
		k1 := (dm - d1) * illinoisAlphaMin * illinoisAlphaMax / (illinoisAlphaMax - illinoisAlphaMin)
		k2 := k1/illinoisAlphaMax - d1
		alpha = k1 / (k2 + da)
	}
	d2, d3 := dm/10, 8*dm/10
	switch {
	case da <= d2:
		beta = illinoisBetaMin
	case da >= d3:
		beta = illinoisBetaMax
	default:
		// k3 + k4*da linear between (d2, βmin) and (d3, βmax).
		k4 := (illinoisBetaMax - illinoisBetaMin) / (d3 - d2)
		beta = illinoisBetaMin + float64(k4*(da-d2))
	}
	return alpha, beta
}

// OnAck implements cc.WindowAlgo.
func (a *IllinoisAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	if rtt > 0 {
		if rtt < a.baseRTT {
			a.baseRTT = rtt
		}
		if rtt > a.maxRTT {
			a.maxRTT = rtt
		}
		a.sumRTT += rtt
		a.cntRTT++
	}
	a.acked++
	if a.acked >= a.cwnd && a.cntRTT > 0 {
		// Once per window: refresh the average-delay estimate.
		a.avgRTT = a.sumRTT / float64(a.cntRTT)
		a.sumRTT, a.cntRTT = 0, 0
		a.acked = 0
	}

	if a.inSlowStart() {
		a.cwnd++
		return
	}
	alpha, _ := a.alphaBeta()
	a.cwnd += alpha / a.cwnd
}

// OnDupAck implements cc.WindowAlgo.
func (a *IllinoisAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *IllinoisAlgo) OnLossEvent(now float64) {
	_, beta := a.alphaBeta()
	a.cwnd *= 1 - beta
	if a.cwnd < 2 {
		a.cwnd = 2
	}
	a.ssthresh = a.cwnd
}

// OnTimeout implements cc.WindowAlgo.
func (a *IllinoisAlgo) OnTimeout(now float64) {
	a.ssthresh = a.cwnd / 2
	if a.ssthresh < 2 {
		a.ssthresh = 2
	}
	a.cwnd = 1
}
