package cc

import (
	"math"

	"pcc/internal/netem"
	"pcc/internal/sack"
	"pcc/internal/sim"
)

// flowCore is what RateSender and WindowSender have in common: the wiring to
// the engine and the path, the per-flow knobs, the SACK scoreboard (shared
// with the real-UDP transport) and the transmission telemetry. Each sender
// adds only what differs: its clock (pacing vs. cwnd/pipe), its tail rescue
// (tail timer vs. RTO) and its algorithm hooks.
type flowCore struct {
	Eng  *sim.Engine
	Flow int
	// SendData transmits a data packet (the harness wires it to the flow's
	// forward Topology route).
	SendData func(*netem.Packet)
	Est      *RTTEstimator

	// FlowPackets, when > 0, limits the flow length; 0 means unbounded.
	FlowPackets int64
	// OnDone fires when every packet of a finite flow has been acknowledged.
	OnDone func(now float64)
	// RTTHint seeds timers and the pacing rate before the first RTT sample
	// (default 0.1 s).
	RTTHint float64
	// Pool, when set, recycles packets: data packets are allocated from it
	// and consumed ACKs are returned to it. It must belong to this sender's
	// engine (pooling never crosses goroutines).
	Pool *netem.PacketPool
	// PktSize is the wire size of every data packet this flow sends
	// (default MSS). It is what a pacing clock spaces, what the network
	// serializes, and what a rate algorithm's OnSend hook is told; a cwnd
	// stays packet-denominated, so a small-packet flow's window covers
	// proportionally fewer bytes.
	PktSize int

	board sack.Board

	sentPkts int64
	rtxPkts  int64
	rttSum   float64
	rttCnt   int64
	done     bool
	started  bool
}

func newFlowCore(eng *sim.Engine, flow int, sendData func(*netem.Packet)) flowCore {
	f := flowCore{Eng: eng, Flow: flow, SendData: sendData, Est: NewRTTEstimator()}
	f.reset()
	return f
}

// reset returns the flow to its just-constructed state for a new trial on a
// reset engine. The Eng/Flow/SendData/Pool wiring, the estimator and the
// scoreboard's ring and retransmission-queue backing are retained, so
// steady-state reuse allocates nothing; every knob returns to its default
// here and only here (the constructor runs this too), so an arena-reused
// sender cannot drift from a fresh one when a default changes.
func (f *flowCore) reset() {
	f.Est.Reset()
	f.board.Reset()
	*f = flowCore{Eng: f.Eng, Flow: f.Flow, SendData: f.SendData, Est: f.Est, Pool: f.Pool, board: f.board,
		RTTHint: 0.1, PktSize: MSS}
}

// Sent returns total data transmissions (including retransmissions).
func (f *flowCore) Sent() int64 { return f.sentPkts }

// Retransmitted returns the number of retransmissions.
func (f *flowCore) Retransmitted() int64 { return f.rtxPkts }

// MeanRTT returns the average of all valid RTT samples (0 if none).
func (f *flowCore) MeanRTT() float64 {
	if f.rttCnt == 0 {
		return 0
	}
	return f.rttSum / float64(f.rttCnt)
}

// limit is FlowPackets as the exclusive sequence bound the board takes.
func (f *flowCore) limit() int64 {
	if f.FlowPackets > 0 {
		return f.FlowPackets
	}
	return math.MaxInt64
}

func (f *flowCore) hasData() bool { return f.board.CanSend(f.limit()) }

// nextPacket picks the next retransmission or new sequence and returns its
// data packet, stamped and counted, or nil when there is nothing to send.
func (f *flowCore) nextPacket(now float64) *netem.Packet {
	seq, rtx := f.board.Pick(now, f.limit())
	if seq < 0 {
		return nil
	}
	if rtx {
		f.rtxPkts++
	}
	f.sentPkts++
	p := f.Pool.Get()
	p.Flow, p.Seq, p.Size, p.Sent = f.Flow, seq, f.PktSize, now
	return p
}

// complete reports whether a finite flow is fully sent and acknowledged.
func (f *flowCore) complete() bool {
	return f.FlowPackets > 0 && f.board.Next() >= f.FlowPackets && f.board.Outstanding() == 0
}

// finish marks the flow done and fires OnDone; the sender has already
// stopped its timers.
func (f *flowCore) finish(now float64) {
	f.done = true
	if f.OnDone != nil {
		f.OnDone(now)
	}
}
