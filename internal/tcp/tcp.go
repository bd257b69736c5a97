// Package tcp implements the TCP congestion control variants the paper
// evaluates against: New Reno, CUBIC, Illinois, Hybla, Vegas, BIC and
// Westwood+, plus New Reno with packet pacing (§4.1.6).
//
// Each variant implements cc.WindowAlgo; the window/loss-recovery machinery
// lives in internal/cc so every variant shares identical SACK recovery and
// RTO behaviour — exactly the "hardwired mapping" split the paper describes:
// variants differ only in how packet-level events map to window updates.
package tcp

import "pcc/internal/cc"

// reno holds the state shared by Reno-style algorithms: a window, a
// slow-start threshold, and the standard halving response.
type reno struct {
	cwnd     float64
	ssthresh float64
}

func newRenoState() reno {
	return reno{cwnd: 2, ssthresh: 1e12}
}

func (r *reno) Cwnd() float64 { return r.cwnd }

func (r *reno) inSlowStart() bool { return r.cwnd < r.ssthresh }

func (r *reno) halve() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2 {
		r.ssthresh = 2
	}
	r.cwnd = r.ssthresh
}

func (r *reno) collapse() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2 {
		r.ssthresh = 2
	}
	r.cwnd = 1
}

// NewRenoAlgo is textbook TCP New Reno: slow start, AIMD congestion
// avoidance (+1 MSS per RTT), halve on loss.
type NewRenoAlgo struct {
	reno
}

// NewReno returns a New Reno instance.
func NewReno() *NewRenoAlgo { return &NewRenoAlgo{reno: newRenoState()} }

// Reset restores the state NewReno builds, in place (the constructor call
// inlines and its literal stays on the stack).
func (a *NewRenoAlgo) Reset() { *a = *NewReno() }

// Name implements cc.WindowAlgo.
func (a *NewRenoAlgo) Name() string { return "newreno" }

// OnAck implements cc.WindowAlgo.
func (a *NewRenoAlgo) OnAck(now, rtt float64, est *cc.RTTEstimator) {
	if a.inSlowStart() {
		a.cwnd++
	} else {
		a.cwnd += 1 / a.cwnd
	}
}

// OnDupAck implements cc.WindowAlgo.
func (a *NewRenoAlgo) OnDupAck() {}

// OnLossEvent implements cc.WindowAlgo.
func (a *NewRenoAlgo) OnLossEvent(now float64) { a.halve() }

// OnTimeout implements cc.WindowAlgo.
func (a *NewRenoAlgo) OnTimeout(now float64) { a.collapse() }
