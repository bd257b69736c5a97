package cc

import (
	"pcc/internal/netem"
	"pcc/internal/sim"
)

// RateSender drives a RateAlgo over a simulated path, calling it through the
// interface whatever its type. Transmission is clocked purely by the
// algorithm's pacing rate — there is no window. Reliability is the shared
// sack.Board, as in WindowSender and the real-UDP transport: packets are
// declared lost by SACK gap or by a tail timer, queued for retransmission,
// and retransmissions consume pacing slots exactly like new data (§3.1: "the
// Sending Module sends packets (new or retransmission) at a certain sending
// rate").
type RateSender struct {
	flowCore
	Algo RateAlgo

	sendTimer    sim.Timer
	tailTimer    sim.Timer
	tailDeadline float64
	sendLoopFn   func()
	onTailFn     func()
}

// NewRateSender wires a rate-based algorithm to a path.
func NewRateSender(eng *sim.Engine, flow int, algo RateAlgo, sendData func(*netem.Packet)) *RateSender {
	s := &RateSender{flowCore: newFlowCore(eng, flow, sendData)}
	// Bound once: the pacing and tail-loss loops reschedule themselves every
	// packet, and a method value allocates a closure per use.
	s.sendLoopFn = s.sendLoop
	s.onTailFn = s.onTail
	s.Algo = algo
	return s
}

// Reset returns the sender to its just-constructed state around a new
// algorithm, for a new trial on a reset engine. What flowCore.reset retains
// survives, so steady-state reuse allocates nothing; every tunable returns to its constructor default and callers
// re-apply per-trial knobs exactly as they would on a fresh sender.
func (s *RateSender) Reset(algo RateAlgo) {
	s.flowCore.reset()
	s.Algo = algo
	s.sendTimer, s.tailTimer = sim.Timer{}, sim.Timer{}
	s.tailDeadline = 0
}

// Start begins transmission.
func (s *RateSender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.Algo.Start(s.Eng.Now())
	s.sendLoop()
}

// rate is the algorithm's pacing rate, floored at 2 packets/second so a flow
// can never stall itself.
func (s *RateSender) rate() float64 {
	r := s.Algo.Rate(s.Eng.Now())
	if floor := 2 * float64(s.PktSize); r < floor {
		r = floor
	}
	return r
}

// sendLoop transmits one packet and schedules the next transmission at the
// current pacing rate.
func (s *RateSender) sendLoop() {
	if s.done || !s.hasData() {
		return
	}
	now := s.Eng.Now()
	// nil when the queue held only retransmissions already acknowledged.
	if p := s.nextPacket(now); p != nil {
		s.Algo.OnSend(p.Seq, s.PktSize, now)
		s.SendData(p)
		s.armTail()
	}
	interval := float64(s.PktSize) / s.rate()
	s.Eng.Rearm(&s.sendTimer, interval, s.sendLoopFn)
}

// tailDelay is the tail-loss detection delay. Unlike kernel TCP's RTO
// (floored at 200 ms — the very floor behind incast collapse, §4.1.8),
// user-space rate-based transports like UDT keep fine-grained timers; a few
// RTTs with a 10 ms floor matches that behaviour.
func (s *RateSender) tailDelay() float64 {
	if !s.Est.HasSample() {
		// No RTT estimate yet: derive from the hint, conservatively, or a
		// long-RTT path's entire first flight would be declared lost
		// before any ACK could possibly return.
		d := 4 * s.RTTHint
		if d < 0.1 {
			d = 0.1
		}
		return d
	}
	d := 3 * s.Est.SRTT
	if d < 0.01 {
		d = 0.01
	}
	return d
}

// armTail schedules the tail-loss timer lazily: the deadline field is
// refreshed on every ACK and the timer re-arms itself when it fires early,
// avoiding a heap operation per acknowledgment.
func (s *RateSender) armTail() {
	if s.tailTimer.Active() {
		return
	}
	s.tailDeadline = s.Eng.Now() + s.tailDelay()
	s.Eng.Rearm(&s.tailTimer, s.tailDelay(), s.onTailFn)
}

func (s *RateSender) onTail() {
	if s.done {
		return
	}
	now := s.Eng.Now()
	if now < s.tailDeadline {
		// ACKs arrived since this timer was armed: sleep until the
		// refreshed deadline.
		s.Eng.Rearm(&s.tailTimer, s.tailDeadline-now, s.onTailFn)
		return
	}
	rto := s.tailDelay()
	for seq, st := s.board.NextOutstanding(0); seq >= 0; seq, st = s.board.NextOutstanding(seq + 1) {
		// Only packets older than the tail delay are presumed lost;
		// fresher ones may simply still be in flight.
		if now-st.SentAt > rto {
			s.board.MarkLost(seq)
			s.Algo.OnLost(seq, now)
		}
	}
	if s.board.Outstanding() > 0 || s.hasData() {
		s.Eng.Rearm(&s.tailTimer, s.tailDelay(), s.onTailFn)
	}
	// Pacing may have stopped on a fully-sent finite flow; resume for the
	// queued retransmissions.
	if !s.sendTimer.Active() {
		s.sendLoop()
	}
}

// OnAck processes an arriving acknowledgment. The sender consumes the ACK:
// when a pool is set the packet is recycled immediately, so callers must not
// touch it afterwards.
func (s *RateSender) OnAck(p *netem.Packet) {
	sackSeq, cumAck, echoSent := p.SackSeq, p.CumAck, p.EchoSent
	s.Pool.Put(p)
	if s.done {
		return
	}
	now := s.Eng.Now()

	if st := s.board.Sack(sackSeq); st != nil {
		rtt := now - echoSent
		if st.Attempts == 0 { // Karn: no samples from retransmitted packets
			s.Est.Sample(rtt)
			s.rttSum += rtt
			s.rttCnt++
		}
		s.Algo.OnAck(sackSeq, rtt, now)
	}
	cumAdvanced := cumAck > s.board.CumAck()
	for s.board.HeadBelow(cumAck) {
		if seq, st := s.board.PopHead(); !st.Sacked {
			// Delivered, but its own SACK was lost on the reverse path:
			// cumulative coverage proves delivery, so tell the algorithm
			// (no RTT sample). Without this, ACK-path loss would inflate
			// the monitor's measured loss rate.
			s.Algo.OnAck(seq, 0, now)
		}
	}

	// Refresh the tail deadline only when the cumulative point advances:
	// a lost retransmission leaves a hole SACK-gap detection cannot
	// re-mark, and only the tail timer can rescue it.
	if cumAdvanced {
		s.tailDeadline = now + s.tailDelay()
	}

	for seq := s.board.NextGapLoss(); seq >= 0; seq = s.board.NextGapLoss() {
		s.Algo.OnLost(seq, now)
	}

	if s.complete() {
		s.sendTimer.Stop()
		s.tailTimer.Stop()
		s.finish(now)
		return
	}
	// Pacing may have stopped on a fully-sent finite flow; resume if
	// retransmissions are now queued.
	if !s.sendTimer.Active() && s.hasData() {
		s.sendLoop()
	}
}
