package cc

import (
	"pcc/internal/netem"
	"pcc/internal/sim"
)

// WindowSender drives a WindowAlgo over a simulated path. Reliability is
// SACK-based: every ACK carries the sequence it acknowledges; a packet is
// declared lost when DupThresh packets above it have been SACKed (the SACK
// analogue of triple-duplicate-ACK), or when the retransmission timer fires.
type WindowSender struct {
	Eng  *sim.Engine
	Flow int
	Algo WindowAlgo
	// SendData transmits a data packet (wired to Dumbbell.SendData).
	SendData func(*netem.Packet)
	Est      *RTTEstimator

	// FlowPackets, when > 0, limits the flow length; 0 means unbounded.
	FlowPackets int64
	// OnDone fires when every packet of a finite flow has been acknowledged.
	OnDone func(now float64)
	// Paced enables packet pacing at cwnd/SRTT (the "TCP Pacing" baseline
	// of §4.1.6).
	Paced bool
	// RTTHint seeds the pacing rate before the first RTT sample.
	RTTHint float64
	// DupThresh is the SACK reordering threshold (default 3).
	DupThresh int64
	// MaxCwnd models the receiver window / socket buffer: the congestion
	// window is clamped to this many packets (default 65536).
	MaxCwnd float64
	// Pool, when set, recycles packets: data packets are allocated from it
	// and consumed ACKs are returned to it. It must belong to this sender's
	// engine (pooling never crosses goroutines).
	Pool *netem.PacketPool
	// PktSize is the wire size of every data packet this flow sends
	// (default MSS); the cwnd stays packet-denominated, so a small-packet
	// flow's window covers proportionally fewer bytes.
	PktSize int

	win      seqWindow
	nextSeq  int64
	cumAck   int64
	sackHigh int64 // highest SACKed sequence
	lossScan int64 // sequences below this have been examined for SACK loss
	pipe     int
	// rtxQ[rtxHead:] is the retransmission FIFO. Consuming by index instead
	// of re-slicing the front keeps the backing array's capacity: a
	// front-sliced queue strands its consumed prefix, so in steady state
	// (queue near-empty, head at the end of the backing) every push
	// allocates a fresh array — one allocation per detected loss.
	rtxQ    []int64
	rtxHead int

	inRecovery bool
	recover    int64

	rtoTimer    sim.Timer
	rtoDeadline float64
	rtoBackoff  float64
	onRTOFn     func()

	paceTimer sim.Timer
	paceFn    func()

	sentPkts int64
	rtxPkts  int64
	rttSum   float64
	rttCnt   int64
	done     bool
	started  bool
	// frozen parks the sender during an injected node crash: the RTO and
	// pacing timers stop and arriving ACKs are consumed without effect.
	frozen bool
}

// NewWindowSender wires a window-based algorithm to a path.
func NewWindowSender(eng *sim.Engine, flow int, algo WindowAlgo, sendData func(*netem.Packet)) *WindowSender {
	s := &WindowSender{
		Eng:      eng,
		Flow:     flow,
		SendData: sendData,
		Est:      NewRTTEstimator(),
	}
	s.initDefaults(algo)
	// Bound once: these loops reschedule themselves constantly and a method
	// value or capturing closure would allocate per use.
	s.onRTOFn = s.onRTO
	s.paceFn = func() {
		if s.frozen {
			return
		}
		if float64(s.pipe) < s.cwnd() && s.hasData() && !s.done {
			s.sendOne()
		}
		s.schedulePace()
	}
	return s
}

// initDefaults applies the non-zero constructor defaults, shared by
// NewWindowSender and Reset so an arena-reused sender cannot drift from a
// fresh one when a default changes.
func (s *WindowSender) initDefaults(algo WindowAlgo) {
	s.Algo = algo
	s.RTTHint = 0.1
	s.DupThresh = 3
	s.MaxCwnd = 65536
	s.PktSize = MSS
	s.sackHigh = -1
	s.rtoBackoff = 1
}

// Reset returns the sender to its just-constructed state around a new
// algorithm, for a new trial on a reset engine. The sequence window's ring,
// the retransmission queue backing and the Eng/Flow/SendData/Pool
// wiring are retained; every tunable returns to its constructor default and
// callers re-apply per-trial knobs exactly as on a fresh sender.
func (s *WindowSender) Reset(algo WindowAlgo) {
	s.initDefaults(algo)
	s.Est.Reset()
	s.FlowPackets = 0
	s.OnDone = nil
	s.Paced = false
	s.win.reset()
	s.nextSeq, s.cumAck, s.lossScan = 0, 0, 0
	s.pipe = 0
	s.rtxQ, s.rtxHead = s.rtxQ[:0], 0
	s.inRecovery = false
	s.recover = 0
	s.rtoTimer, s.paceTimer = sim.Timer{}, sim.Timer{}
	s.rtoDeadline = 0
	s.sentPkts, s.rtxPkts = 0, 0
	s.rttSum, s.rttCnt = 0, 0
	s.done, s.started = false, false
	s.frozen = false
}

// Start begins transmission.
func (s *WindowSender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.trySend()
}

// Freeze parks the sender for an injected node crash: both timers stop and
// every hook becomes a no-op until Unfreeze. Window state (pipe, SACK marks,
// recovery point) is retained untouched.
func (s *WindowSender) Freeze() {
	s.frozen = true
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
}

// Unfreeze resumes a frozen sender where it stopped, re-arming the RTO for
// whatever is still outstanding (those packets died with the crashed links
// and only the timeout can rescue them).
func (s *WindowSender) Unfreeze() {
	s.frozen = false
	if s.started && !s.done {
		s.trySend()
		if s.pipe > 0 || s.rtxHead < len(s.rtxQ) {
			s.armRTO()
		}
	}
}

// Sent returns total data transmissions (including retransmissions).
func (s *WindowSender) Sent() int64 { return s.sentPkts }

// Retransmitted returns the number of retransmissions.
func (s *WindowSender) Retransmitted() int64 { return s.rtxPkts }

// MeanRTT returns the average of all valid RTT samples (0 if none).
func (s *WindowSender) MeanRTT() float64 {
	if s.rttCnt == 0 {
		return 0
	}
	return s.rttSum / float64(s.rttCnt)
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

func (s *WindowSender) hasData() bool {
	if s.rtxHead < len(s.rtxQ) {
		return true
	}
	return s.FlowPackets == 0 || s.nextSeq < s.FlowPackets
}

// trySend transmits as allowed by cwnd (immediately, or via the pacer).
func (s *WindowSender) trySend() {
	if s.done || s.frozen {
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
	if s.paceTimer.Active() || s.done || s.frozen {
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
	now := s.Eng.Now()
	seq := int64(-1)
	for s.rtxHead < len(s.rtxQ) {
		cand := s.rtxQ[s.rtxHead]
		s.rtxHead++
		if s.rtxHead == len(s.rtxQ) {
			s.rtxQ, s.rtxHead = s.rtxQ[:0], 0
		}
		if st := s.win.lookup(cand); st != nil && st.lost && !st.sacked {
			st.lost = false
			st.rtx = true
			st.sentAt = now
			s.rtxPkts++
			seq = cand
			break
		}
	}
	if seq < 0 {
		if s.FlowPackets > 0 && s.nextSeq >= s.FlowPackets {
			return
		}
		seq = s.nextSeq
		s.win.add().sentAt = now
		s.nextSeq++
	}
	// The window entry is final here: no pointer into the ring is held
	// across the network callback.
	s.pipe++
	s.sentPkts++
	p := s.Pool.Get()
	p.Flow, p.Seq, p.Size, p.Sent = s.Flow, seq, s.PktSize, now
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
	s.rtoDeadline = s.Eng.Now() + s.Est.RTO()*s.rtoBackoff
	s.Eng.Rearm(&s.rtoTimer, s.Est.RTO()*s.rtoBackoff, s.onRTOFn)
}

func (s *WindowSender) resetRTO() {
	if s.pipe > 0 || s.rtxHead < len(s.rtxQ) {
		s.rtoDeadline = s.Eng.Now() + s.Est.RTO()*s.rtoBackoff
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
	if s.done || s.frozen {
		// Frozen (crashed node): the ACK is consumed but the host is not
		// there to process it.
		return
	}
	now := s.Eng.Now()
	newly := 0
	var rttSample float64

	if st := s.win.lookup(sackSeq); st != nil && !st.sacked {
		s.win.markSacked(st)
		if st.lost {
			st.lost = false // was queued for rtx but arrived after all
		} else {
			s.pipe--
		}
		newly++
		if !st.rtx { // Karn: no samples from retransmitted packets
			rttSample = now - echoSent
		}
	}
	if sackSeq > s.sackHigh {
		s.sackHigh = sackSeq
	}

	// Advance the cumulative window head.
	cumAdvanced := false
	if cumAck > s.cumAck {
		s.cumAck = cumAck
		cumAdvanced = true
	}
	for s.win.headBelow(s.cumAck) {
		if _, st := s.win.popHead(); !st.sacked {
			// A lost entry already left the pipe; its queued rtx is
			// neutralized by no longer being tracked.
			if !st.lost {
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

	// SACK loss detection: a packet is lost once DupThresh packets above it
	// have been SACKed. Each sequence is examined at most once (lossScan is
	// monotone outside of RTO recovery).
	lossEvent := false
	limit := s.sackHigh - s.DupThresh
	if limit >= s.lossScan {
		for seq := max(s.lossScan, s.win.base); seq <= limit && seq < s.win.next; seq++ {
			if st := s.win.at(seq); !st.sacked && !st.lost {
				st.lost = true
				s.pipe--
				s.rtxQ = append(s.rtxQ, seq)
				lossEvent = true
			}
		}
		s.lossScan = limit + 1
	}
	if lossEvent && !s.inRecovery {
		s.inRecovery = true
		s.recover = s.nextSeq - 1
		s.Algo.OnLossEvent(now)
	}
	if s.inRecovery && s.cumAck > s.recover {
		s.inRecovery = false
	}

	// Completion for finite flows.
	if s.FlowPackets > 0 && s.nextSeq >= s.FlowPackets && s.win.outstanding() == 0 {
		s.done = true
		s.rtoTimer.Stop()
		s.paceTimer.Stop()
		if s.OnDone != nil {
			s.OnDone(now)
		}
		return
	}

	s.trySend()
}

// onRTO handles a retransmission timeout: every un-SACKed outstanding packet
// is presumed lost and the algorithm collapses its window.
func (s *WindowSender) onRTO() {
	if s.done || s.frozen {
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
	s.rtxQ, s.rtxHead = s.rtxQ[:0], 0
	for seq := s.win.base; seq < s.win.next; seq++ {
		if st := s.win.at(seq); !st.sacked {
			st.lost = true
			s.rtxQ = append(s.rtxQ, seq)
		}
	}
	s.pipe = 0
	s.lossScan = s.nextSeq // re-examine nothing until new SACK evidence
	s.inRecovery = true
	s.recover = s.nextSeq - 1
	s.trySend()
	s.armRTO()
}
