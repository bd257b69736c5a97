package cc

import (
	"pcc/internal/netem"
	"pcc/internal/sim"
)

// WindowSender drives a WindowAlgo over a simulated path. Reliability is
// SACK-based, on the shared sack.Board: every ACK carries the sequence it
// acknowledges; a packet is declared lost when sack.DupThresh packets above
// it have been SACKed (the SACK analogue of triple-duplicate-ACK), or when
// the retransmission timer fires. What is kept here is what a window sender
// adds: the pipe estimate, the recovery episode and the RTO policy.
type WindowSender struct {
	flowCore
	Algo WindowAlgo
	// Paced enables packet pacing at cwnd/SRTT (the "TCP Pacing" baseline
	// of §4.1.6).
	Paced bool
	// MaxCwnd models the receiver window / socket buffer: the congestion
	// window is clamped to this many packets (default 65536).
	MaxCwnd float64

	pipe int // packets believed in flight: sent, not SACKed, not declared lost

	inRecovery bool
	recover    int64

	rtoTimer    sim.Timer
	rtoDeadline float64
	rtoBackoff  float64
	onRTOFn     func()

	paceTimer sim.Timer
	paceFn    func()
}

// NewWindowSender wires a window-based algorithm to a path.
func NewWindowSender(eng *sim.Engine, flow int, algo WindowAlgo, sendData func(*netem.Packet)) *WindowSender {
	s := &WindowSender{flowCore: newFlowCore(eng, flow, sendData)}
	s.initDefaults(algo)
	// Bound once: these loops reschedule themselves constantly and a method
	// value or capturing closure would allocate per use.
	s.onRTOFn = s.onRTO
	s.paceFn = func() {
		if float64(s.pipe) < s.cwnd() && s.hasData() && !s.done {
			s.sendOne()
		}
		s.schedulePace()
	}
	return s
}

// initDefaults applies the window sender's own constructor defaults, shared
// by NewWindowSender and Reset (flowCore.reset covers the common ones).
func (s *WindowSender) initDefaults(algo WindowAlgo) {
	s.Algo = algo
	s.MaxCwnd = 65536
	s.rtoBackoff = 1
}

// Reset returns the sender to its just-constructed state around a new
// algorithm, for a new trial on a reset engine. What flowCore.reset retains
// survives; every tunable returns to its constructor default and callers
// re-apply per-trial knobs exactly as on a fresh sender.
func (s *WindowSender) Reset(algo WindowAlgo) {
	s.flowCore.reset()
	s.initDefaults(algo)
	s.Paced = false
	s.pipe = 0
	s.inRecovery = false
	s.recover = 0
	s.rtoTimer, s.paceTimer = sim.Timer{}, sim.Timer{}
	s.rtoDeadline = 0
}

// Start begins transmission.
func (s *WindowSender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.trySend()
}

func (s *WindowSender) cwnd() float64 {
	w := s.Algo.Cwnd()
	if w < 1 {
		w = 1
	}
	if s.MaxCwnd > 0 && w > s.MaxCwnd {
		w = s.MaxCwnd
	}
	return w
}

// trySend transmits as allowed by cwnd (immediately, or via the pacer).
func (s *WindowSender) trySend() {
	if s.done {
		return
	}
	if s.Paced {
		s.schedulePace()
		return
	}
	// Hoist the window once: Cwnd is a pure getter and sendOne runs no
	// algorithm hooks, so the value cannot change inside the loop — one
	// interface dispatch covers the whole send train.
	w := s.cwnd()
	for float64(s.pipe) < w && s.hasData() {
		s.sendOne()
	}
}

// schedulePace arms the pacing timer if it is idle and there is work.
func (s *WindowSender) schedulePace() {
	if s.paceTimer.Active() || s.done {
		return
	}
	w := s.cwnd()
	if float64(s.pipe) >= w || !s.hasData() {
		return
	}
	rtt := s.Est.SRTT
	if !s.Est.HasSample() {
		rtt = s.RTTHint
	}
	rate := w * float64(s.PktSize) / rtt // bytes/s
	interval := float64(s.PktSize) / rate
	s.Eng.Rearm(&s.paceTimer, interval, s.paceFn)
}

// sendOne transmits the next retransmission or new packet.
func (s *WindowSender) sendOne() {
	p := s.nextPacket(s.Eng.Now())
	if p == nil {
		return
	}
	s.pipe++
	s.SendData(p)
	s.armRTO()
}

// armRTO starts the retransmission timer if it is not already running. It
// must not refresh an armed timer: only cumulative-ACK progress may do that
// (resetRTO), or a stuck hole would never time out while traffic flows.
func (s *WindowSender) armRTO() {
	if s.rtoTimer.Active() {
		return
	}
	s.rtoDeadline = s.Eng.Now() + float64(s.Est.RTO()*s.rtoBackoff)
	s.Eng.Rearm(&s.rtoTimer, s.Est.RTO()*s.rtoBackoff, s.onRTOFn)
}

func (s *WindowSender) resetRTO() {
	if s.pipe > 0 || s.board.HasRtx() {
		s.rtoDeadline = s.Eng.Now() + float64(s.Est.RTO()*s.rtoBackoff)
	} else {
		s.rtoTimer.Stop()
	}
}

// OnAck processes an arriving acknowledgment. The sender consumes the ACK:
// when a pool is set the packet is recycled immediately, so callers must not
// touch it afterwards.
func (s *WindowSender) OnAck(p *netem.Packet) {
	sackSeq, cumAck, echoSent := p.SackSeq, p.CumAck, p.EchoSent
	s.Pool.Put(p)
	if s.done {
		return
	}
	now := s.Eng.Now()
	newly := 0
	var rttSample float64

	if st := s.board.Sack(sackSeq); st != nil {
		// A lost entry already left the pipe (it was queued for rtx but
		// arrived after all; Pick skips it now that it is SACKed).
		if !st.Lost {
			s.pipe--
		}
		newly++
		if st.Attempts == 0 { // Karn: no samples from retransmitted packets
			rttSample = now - echoSent
		}
	}

	// Advance the cumulative window head.
	cumAdvanced := cumAck > s.board.CumAck()
	for s.board.HeadBelow(cumAck) {
		if _, st := s.board.PopHead(); !st.Sacked {
			// A lost entry already left the pipe; its queued rtx is
			// neutralized by no longer being tracked.
			if !st.Lost {
				s.pipe--
			}
			newly++
		}
	}

	if rttSample > 0 {
		s.Est.Sample(rttSample)
		s.rttSum += rttSample
		s.rttCnt++
	}
	if newly > 0 {
		for i := 0; i < newly; i++ {
			s.Algo.OnAck(now, rttSample, s.Est)
		}
	} else {
		s.Algo.OnDupAck()
	}
	// RFC 6298 semantics: the retransmission timer restarts only when
	// SND.UNA advances. SACKs for later packets must NOT refresh it, or a
	// lost retransmission (which SACK-gap detection cannot re-mark) would
	// stall recovery forever while the window grows unchecked.
	if cumAdvanced {
		s.rtoBackoff = 1
		s.resetRTO()
	}

	// SACK-gap loss detection; each newly lost packet leaves the pipe.
	lossEvent := false
	for s.board.NextGapLoss() >= 0 {
		s.pipe--
		lossEvent = true
	}
	if lossEvent && !s.inRecovery {
		s.inRecovery = true
		s.recover = s.board.Next() - 1
		s.Algo.OnLossEvent(now)
	}
	if s.inRecovery && s.board.CumAck() > s.recover {
		s.inRecovery = false
	}

	// Completion for finite flows.
	if s.complete() {
		s.rtoTimer.Stop()
		s.paceTimer.Stop()
		s.finish(now)
		return
	}

	s.trySend()
}

// onRTO handles a retransmission timeout: every un-SACKed outstanding packet
// is presumed lost and the algorithm collapses its window.
func (s *WindowSender) onRTO() {
	if s.done {
		return
	}
	if now := s.Eng.Now(); now < s.rtoDeadline {
		// ACKs refreshed the deadline since this timer was armed.
		s.Eng.Rearm(&s.rtoTimer, s.rtoDeadline-now, s.onRTOFn)
		return
	}
	s.Algo.OnTimeout(s.Eng.Now())
	s.rtoBackoff *= 2
	if s.rtoBackoff > 64 {
		s.rtoBackoff = 64
	}
	s.board.LoseAll()
	s.pipe = 0
	s.inRecovery = true
	s.recover = s.board.Next() - 1
	s.trySend()
	s.armRTO()
}
