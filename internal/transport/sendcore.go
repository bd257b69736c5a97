package transport

import (
	"io"
	"math"

	"pcc/internal/core"
	"pcc/internal/sack"
)

// finRetries bounds how many times the flow-terminating FIN is sent. Each
// copy is confirmed by the receiver's fin-ack (EchoSeq == finAckEcho); the
// repeats, exponentially spaced up to finGapCeil, only exist for the case
// where FINs or fin-acks are being lost. Exhausting the budget without a
// confirmation surfaces a RetryExceededError with Stage "fin".
const finRetries = 10

// idlePoll is the tail-loss check's cadence, seconds: how soon the core asks
// to be polled again when all is sent but not all acknowledged.
const idlePoll = 0.002

// sendCore is the sender as a clock-free state machine: no socket, goroutine,
// lock or time call inside. Whoever drives it owns the clock (Sender feeds it
// the wall clock, tests a virtual one; seconds since the driver's epoch, the
// unit core.PCC uses) and moves the datagrams: Poll yields the next one and
// when to poll again, OnAck ingests feedback. Reliability is the sack.Board
// the simulator's senders share; what is kept here is the transport's
// policy: PCC pacing, per-sequence backed-off tail RTOs with retry budgets,
// and the FIN handshake.
type sendCore struct {
	flowID   uint32
	pcc      *core.PCC
	payloads [][]byte // chunked flow contents
	board    sack.Board

	sent       int64
	rtx        int64
	sentBytes  int64 // payload bytes over all transmissions
	rtxBytes   int64 // payload bytes of retransmissions only
	ackedBytes int64 // payload bytes acknowledged (each seq once)

	// wakeAt ends the current pacing gap, idle poll or FIN gap: a Poll
	// before then yields nothing.
	wakeAt float64

	finSent  int     // FIN copies sent so far
	finGap   float64 // wait after the next FIN copy
	finAcked bool    // the receiver confirmed a FIN
	err      error   // the retry budget that failed the flow, once set
}

// newSendCore chunks the contents of r into packets around a PCC controller
// built from wireConfig(cfg).
func newSendCore(cfg core.Config, r io.Reader) (*sendCore, error) {
	c := &sendCore{flowID: 1, pcc: core.New(wireConfig(cfg), nil)}
	c.pcc.Start(0) // the driver's epoch
	buf := make([]byte, MSS)
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			c.payloads = append(c.payloads, append([]byte(nil), buf[:n]...))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// wireConfig fills an unset PacketSize with the wire's payload budget (MSS,
// 1400 B), so the monitor's MI floor tracks it rather than the 1500-byte
// simulator default, and rescales InitialRate and MinRate by MSS/core.MSS:
// core.DefaultConfig derives both for 1500-byte packets, and core.New
// back-solves its RTT seed from InitialRate and PacketSize, so the size
// alone would read the hint 1400/1500 too short. A caller who wants an
// exact InitialRate pins PacketSize, which leaves the config untouched.
func wireConfig(cfg core.Config) core.Config {
	if cfg.PacketSize == 0 {
		cfg.PacketSize = MSS
		cfg.InitialRate = cfg.InitialRate * MSS / core.MSS
		cfg.MinRate = cfg.MinRate * MSS / core.MSS
	}
	return cfg
}

// dataDone reports whether every packet has been acknowledged (trivially so
// for an empty flow); what remains is the FIN.
func (c *sendCore) dataDone() bool { return c.board.CumAck() >= int64(len(c.payloads)) }

// finished reports whether the flow is over: the FIN was confirmed, or a
// retry budget ran out (err says which).
func (c *sendCore) finished() bool { return c.finAcked || c.err != nil }

// Poll asks for the next datagram at time now: n > 0 bytes of buf (which
// must hold dataHeaderLen+MSS) to send now, or n == 0 when nothing is due.
// Either way wakeAt is when to poll again, +Inf once the flow is finished;
// an ACK may make work due sooner and polling early is harmless. The pacing
// law is one packet per len/rate seconds; with everything sent but not yet
// acknowledged, each idle poll runs the tail-loss check.
func (c *sendCore) Poll(now float64, buf []byte) (n int, wakeAt float64) {
	if c.finished() {
		return 0, math.Inf(1)
	}
	if now < c.wakeAt {
		return 0, c.wakeAt
	}
	total := int64(len(c.payloads))
	if c.dataDone() {
		return c.pollFin(now, buf, total)
	}
	seq, isRtx := c.board.Pick(now, total)
	if seq < 0 {
		// Everything sent; wait for stragglers or declare them lost.
		c.tailCheck(now)
		if c.err != nil {
			return 0, math.Inf(1)
		}
		c.wakeAt = now + idlePoll
		return 0, c.wakeAt
	}
	payload := c.payloads[seq]
	rate := max(c.pcc.Rate(now), 2*MSS)
	n = encodeData(buf, c.flowID, seq, int64(now*1e9), payload)
	c.pcc.OnSend(seq, len(payload), now)
	c.sent++
	c.sentBytes += int64(len(payload))
	if isRtx {
		c.rtx++
		c.rtxBytes += int64(len(payload))
	}
	c.wakeAt = now + float64(len(payload))/rate
	return n, c.wakeAt
}

// pollFin announces the flow length until the receiver's fin-ack arrives.
// Each unconfirmed copy is followed by an exponentially growing wait — the
// first gap a couple of smoothed RTTs, doubling up to finGapCeil — and when
// the wait after the last budgeted copy ends unconfirmed the flow fails with
// a fin-stage RetryExceededError.
func (c *sendCore) pollFin(now float64, buf []byte, total int64) (int, float64) {
	if c.finSent == finRetries {
		c.err = &RetryExceededError{Stage: "fin", FlowID: c.flowID, Seq: -1, Attempts: finRetries}
		return 0, math.Inf(1)
	}
	if c.finSent == 0 {
		c.finGap = min(max(2*c.pcc.SRTT(), 0.005), 0.1)
	}
	c.finSent++
	c.wakeAt = now + c.finGap
	c.finGap = min(2*c.finGap, finGapCeil)
	return encodeFin(buf, c.flowID, total), c.wakeAt
}

// tailCheck re-marks long-unacknowledged packets as lost when the stream
// has drained (tail loss). Only packets older than their RTO are eligible —
// fresher ones may simply still be in flight, and re-marking them on every
// idle poll would turn the stream tail into a spurious retransmission storm
// (each copy re-entering the queue before its predecessor's ACK could
// possibly return).
//
// The RTO is per-sequence and exponentially backed off: base (2 smoothed
// RTTs, floored) doubled per prior retransmission of that sequence, capped
// at rtoCeil. A packet that would exceed its retry budget fails the flow
// with a typed error instead of re-queueing: "connect" while nothing has
// ever been acknowledged (the establishment budget is short), "data" after.
func (c *sendCore) tailCheck(now float64) {
	base := max(2*c.pcc.SRTT(), 0.05)
	limit, stage := maxDataRetries, "data"
	if c.ackedBytes == 0 && c.board.CumAck() == 0 {
		limit, stage = maxConnRetries, "connect"
	}
	for seq, e := c.board.NextOutstanding(0); seq >= 0; seq, e = c.board.NextOutstanding(seq + 1) {
		if now-e.SentAt <= min(math.Ldexp(base, int(e.Attempts)), rtoCeil) {
			continue
		}
		if int(e.Attempts) >= limit {
			c.err = &RetryExceededError{Stage: stage, FlowID: c.flowID, Seq: seq, Attempts: int(e.Attempts)}
			return
		}
		c.board.MarkLost(seq)
	}
}

// OnAck ingests one acknowledgment at time now. The board bounds what it may
// do — acknowledge sequences that were sent and are still outstanding,
// however wide its ranges or high its cumulative point — and another flow's
// ACK does nothing, so a corrupt or forged one can neither hang the sender
// nor complete the flow.
func (c *sendCore) OnAck(a Ack, now float64) {
	if a.FlowID != c.flowID || c.finished() {
		return
	}
	if a.EchoSeq == finAckEcho {
		// Only a FIN that was sent can be confirmed, and one is sent only
		// once the flow is fully acknowledged: no data feedback is left.
		c.finAcked = c.finSent > 0
		return
	}
	b := &c.board
	if b.Sack(a.EchoSeq) != nil {
		// The echoed timestamp is of the very copy that arrived, so the
		// sample is valid for retransmissions too.
		c.acked(a.EchoSeq, now-float64(a.EchoNanos)/1e9, now)
	}
	for b.HeadBelow(a.CumAck) {
		if seq, e := b.PopHead(); !e.Sacked {
			c.acked(seq, 0, now)
		}
	}
	for _, rg := range a.Ranges {
		for seq, end := b.Clamp(rg.Start, rg.End); seq <= end; seq++ {
			if b.Sack(seq) != nil {
				c.acked(seq, 0, now)
			}
		}
	}
	for b.NextGapLoss() >= 0 {
		// Queued for retransmission by the board; PCC takes no loss hook.
	}
	if c.dataDone() && c.finSent == 0 {
		c.wakeAt = now // the first FIN is due at once, not after the pacing gap
	}
}

// acked credits the first acknowledgment of seq: to the byte ledger and to
// the PCC monitor (rtt 0 = no sample).
func (c *sendCore) acked(seq int64, rtt, now float64) {
	c.ackedBytes += int64(len(c.payloads[seq]))
	c.pcc.OnAck(seq, rtt, now)
}
