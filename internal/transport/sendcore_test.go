package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"pcc/internal/core"
)

// testCore builds a sendCore over an n-byte flow of seeded random data,
// starting at 40 Mbps so a test's whole flow leaves within milliseconds of
// virtual time.
func testCore(t testing.TB, n int) (*sendCore, []byte) {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(data)
	cfg := core.DefaultConfig(0.002)
	cfg.InitialRate = 5e6
	c, err := newSendCore(cfg, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return c, data
}

// virtualPath drives a sendCore on a virtual clock against the package's
// real Receiver logic: every datagram the core emits crosses a constant-delay
// path (unless a drop hook eats it), the receiver's ACK is encoded and decoded
// through wire.go and arrives one delay later. No socket, goroutine or sleep:
// time jumps from one event to the next.
type virtualPath struct {
	t     *testing.T
	c     *sendCore
	recv  *Receiver
	out   bytes.Buffer
	now   float64
	delay float64 // one-way, seconds

	dropData func(seq int64) bool // eats a data datagram
	dropFin  func(nth int) bool   // eats the nth FIN (1-based)
	dropAck  func() bool          // eats an ACK on the way back

	acks      []pendingAck // in arrival order (constant delay keeps it sorted)
	sendTimes map[int64][]float64
	finAt     []float64
}

type pendingAck struct {
	at   float64
	wire []byte
}

func newVirtualPath(t *testing.T, c *sendCore) *virtualPath {
	p := &virtualPath{t: t, c: c, delay: 0.001, sendTimes: map[int64][]float64{}}
	p.recv = NewReceiver(nil, &p.out)
	return p
}

// run advances virtual time until the core finishes or stop returns true,
// failing the test if that takes more than maxTime virtual seconds.
func (p *virtualPath) run(maxTime float64, stop func() bool) {
	p.t.Helper()
	buf := make([]byte, dataHeaderLen+MSS)
	for steps := 0; !p.c.finished() && (stop == nil || !stop()); steps++ {
		if p.now > maxTime || steps > 5_000_000 {
			p.t.Fatalf("core still running at virtual t=%.3fs after %d steps (sent=%d rtx=%d)", p.now, steps, p.c.sent, p.c.rtx)
		}
		for len(p.acks) > 0 && p.acks[0].at <= p.now {
			a, err := decodeAck(p.acks[0].wire, nil)
			if err != nil {
				p.t.Fatalf("receiver produced an undecodable ack: %v", err)
			}
			p.c.OnAck(a, p.now)
			p.acks = p.acks[1:]
		}
		n, wakeAt := p.c.Poll(p.now, buf)
		if n > 0 {
			p.deliver(buf[:n])
		}
		if len(p.acks) > 0 && p.acks[0].at < wakeAt {
			wakeAt = p.acks[0].at
		}
		if wakeAt > p.now && !math.IsInf(wakeAt, 1) {
			p.now = wakeAt
		}
	}
}

// deliver plays the network and the receiver for one datagram.
func (p *virtualPath) deliver(dgram []byte) {
	var ack Ack
	var ok bool
	switch dgram[0] {
	case typeData:
		h, payload, err := decodeData(dgram)
		if err != nil {
			p.t.Fatalf("core emitted an undecodable data packet: %v", err)
		}
		p.sendTimes[h.Seq] = append(p.sendTimes[h.Seq], p.now)
		if p.dropData != nil && p.dropData(h.Seq) {
			return
		}
		ack, ok = p.recv.onData(h, payload)
	case typeFin:
		flowID, total, err := decodeFin(dgram)
		if err != nil {
			p.t.Fatalf("core emitted an undecodable fin: %v", err)
		}
		p.finAt = append(p.finAt, p.now)
		if p.dropFin != nil && p.dropFin(len(p.finAt)) {
			return
		}
		ack, ok = p.recv.onFin(flowID, total)
	default:
		p.t.Fatalf("core emitted a datagram of unknown type %#x", dgram[0])
	}
	if !ok || (p.dropAck != nil && p.dropAck()) {
		return
	}
	wire := make([]byte, 1024)
	p.acks = append(p.acks, pendingAck{at: p.now + 2*p.delay, wire: wire[:encodeAck(wire, ack)]})
}

// retryErr unwraps the core's failure as a RetryExceededError.
func retryErr(t *testing.T, c *sendCore) *RetryExceededError {
	t.Helper()
	var re *RetryExceededError
	if !errors.As(c.err, &re) {
		t.Fatalf("core err = %v, want a RetryExceededError", c.err)
	}
	return re
}

// TestVirtualLossyTransfer is the loopback telemetry harness on virtual time:
// 5 % data loss and 5 % ACK loss, seeded, must still deliver the exact bytes
// and keep the byte ledger consistent — with no wall-clock wait, so it runs
// under -short where the real-socket transfers are skipped.
func TestVirtualLossyTransfer(t *testing.T) {
	c, data := testCore(t, 300*1024+137)
	p := newVirtualPath(t, c)
	rng := rand.New(rand.NewSource(21))
	dropped := 0
	p.dropData = func(int64) bool {
		if rng.Float64() < 0.05 {
			dropped++
			return true
		}
		return false
	}
	p.dropAck = func() bool { return rng.Float64() < 0.05 }
	p.dropFin = func(nth int) bool { return nth <= 2 }
	p.run(60, nil)
	if c.err != nil || !c.finAcked {
		t.Fatalf("transfer ended with err=%v finAcked=%v", c.err, c.finAcked)
	}
	if !bytes.Equal(p.out.Bytes(), data) {
		t.Fatalf("payload corrupted: got %d bytes want %d", p.out.Len(), len(data))
	}
	if flowLen := int64(len(data)); c.ackedBytes != flowLen || c.sentBytes-c.rtxBytes != flowLen {
		t.Fatalf("ledger: sent %d − rtx %d, acked %d; want flow length %d", c.sentBytes, c.rtxBytes, c.ackedBytes, flowLen)
	}
	if dropped == 0 || c.rtx == 0 || len(p.finAt) != 3 {
		t.Fatalf("path exercised no recovery: %d drops, %d rtx, %d FINs", dropped, c.rtx, len(p.finAt))
	}
}

// TestTailCheckAgeGate is the regression for the tail retransmission storm:
// the drained-stream check must only re-mark packets older than an RTO, not
// every unacked packet on every idle poll.
func TestTailCheckAgeGate(t *testing.T) {
	c, _ := testCore(t, 10*MSS)
	buf := make([]byte, dataHeaderLen+MSS)
	var sendTimes []float64
	now := 0.0
	for len(sendTimes) < 10 {
		n, wakeAt := c.Poll(now, buf)
		if n == 0 {
			t.Fatalf("core idle at t=%v with %d of 10 packets sent", now, len(sendTimes))
		}
		sendTimes = append(sendTimes, now)
		now = wakeAt
	}
	// Seq 2 arrived (no higher one did, so SACK-gap detection stays out of
	// it); the sample keeps the smoothed RTT, hence the 50 ms RTO floor,
	// where it started.
	c.OnAck(Ack{FlowID: c.flowID, EchoSeq: 2, EchoNanos: int64((now - 0.0005) * 1e9)}, now)
	const rto = 0.05

	// A fully-sent stream whose every packet just left the wire: idle polls
	// inside the RTO must declare nothing lost.
	for ; now+idlePoll < sendTimes[0]+rto; now += idlePoll {
		if n, _ := c.Poll(now, buf); n != 0 || c.board.HasRtx() {
			t.Fatalf("tail check at age %.1f ms declared fresh in-flight packets lost (the old storm)", (now-sendTimes[0])*1e3)
		}
	}

	// One check between the 6th and 7th packets' deadlines: exactly the
	// aged, un-SACKed ones are re-marked.
	now = (sendTimes[5]+sendTimes[6])/2 + rto
	n, wakeAt := c.Poll(now, buf)
	if n != 0 {
		t.Fatal("idle poll emitted a datagram")
	}
	for seq := int64(0); seq < 10; seq++ {
		want := seq <= 5 && seq != 2
		if got := c.board.Lookup(seq).Lost; got != want {
			t.Errorf("seq %d (age %.2f ms, sacked=%v): lost=%v, want %v", seq, (now-sendTimes[seq])*1e3, seq == 2, got, want)
		}
	}
	// They come back in order, paced, before the next tail check.
	for _, want := range []int64{0, 1, 3, 4, 5} {
		n, wakeAt = c.Poll(wakeAt, buf)
		if h, _, err := decodeData(buf[:n]); err != nil || h.Seq != want {
			t.Fatalf("retransmission = seq %d (%v), want %d", h.Seq, err, want)
		}
	}
	if c.rtx != 5 || c.board.HasRtx() {
		t.Fatalf("rtx=%d with queue non-empty=%v, want exactly the 5 aged packets", c.rtx, c.board.HasRtx())
	}
}

// TestRetryBudgetStages drives the tail check through both give-up stages:
// with nothing ever acknowledged the short establishment budget applies
// ("connect"); once bytes have been acknowledged the data budget applies
// ("data"). Packets still inside their budget must keep being re-queued, not
// fail.
func TestRetryBudgetStages(t *testing.T) {
	c, _ := testCore(t, 4*MSS)
	p := newVirtualPath(t, c)
	p.dropData = func(int64) bool { return true }
	p.run(60, nil)
	if re := retryErr(t, c); re.Stage != "connect" || re.Seq != 0 || re.Attempts != maxConnRetries {
		t.Fatalf("err = %v, want connect-stage RetryExceededError for seq 0 after %d retransmissions", c.err, maxConnRetries)
	}
	if got := len(p.sendTimes[0]); got != 1+maxConnRetries {
		t.Fatalf("seq 0 transmitted %d times, want 1 + %d", got, maxConnRetries)
	}

	// The peer is alive (everything but seq 2 arrives): the data budget
	// applies, so seq 2 sails past the connect ceiling, keeps being
	// re-queued, and only fails the flow at the data ceiling.
	c, _ = testCore(t, 4*MSS)
	p = newVirtualPath(t, c)
	p.dropData = func(seq int64) bool { return seq == 2 }
	p.run(120, nil)
	if re := retryErr(t, c); re.Stage != "data" || re.Seq != 2 || re.Attempts != maxDataRetries {
		t.Fatalf("err = %v, want data-stage RetryExceededError for seq 2 after %d retransmissions", c.err, maxDataRetries)
	}
	if got := len(p.sendTimes[2]); got != 1+maxDataRetries {
		t.Fatalf("seq 2 transmitted %d times, want 1 + %d", got, maxDataRetries)
	}
	if c.board.CumAck() != 2 || c.dataDone() {
		t.Fatalf("cumAck = %d, done=%v; want the flow stuck behind seq 2", c.board.CumAck(), c.dataDone())
	}
}

// TestRetryBackoffDelaysRequeue pins the exponential RTO: a packet that was
// already retransmitted k times must not be re-marked at the base RTO, only
// after base·2^k — and never later than the rtoCeil cap, however many
// attempts it has behind it.
func TestRetryBackoffDelaysRequeue(t *testing.T) {
	c, _ := testCore(t, 2*MSS)
	p := newVirtualPath(t, c)
	p.dropData = func(seq int64) bool { return seq == 0 }
	p.run(120, nil)
	times := p.sendTimes[0]
	if len(times) != 1+maxDataRetries {
		t.Fatalf("seq 0 transmitted %d times, want 1 + %d", len(times), maxDataRetries)
	}
	capped := 0
	for k := 0; k+1 < len(times); k++ {
		// Base RTO is 50 ms (floored: the path's RTT is 2 ms).
		rto := math.Ldexp(0.05, k)
		if rto > rtoCeil {
			rto, capped = rtoCeil, capped+1
		}
		// The check runs every idle poll, and the retransmission then
		// waits for the pacer: a few milliseconds of slack, no more.
		if gap := times[k+1] - times[k]; gap <= rto || gap > rto+0.01 {
			t.Errorf("retransmission %d came %.1f ms after the previous copy, want just over its %.0f ms RTO", k+1, gap*1e3, rto*1e3)
		}
	}
	if capped < 10 {
		t.Fatalf("only %d retransmissions ran at the rtoCeil cap; the ceiling is not exercised", capped)
	}
}

// TestBlackholePeerFailsConnect sends a small flow into a peer that answers
// nothing: the sender must give up with a connect-stage RetryExceededError
// instead of retransmitting forever — after the backed-off establishment
// budget (≈ 5 s of virtual time), not sooner and not much later.
func TestBlackholePeerFailsConnect(t *testing.T) {
	c, _ := testCore(t, 3*MSS)
	p := newVirtualPath(t, c)
	p.dropData = func(int64) bool { return true }
	p.run(30, nil)
	if re := retryErr(t, c); re.Stage != "connect" {
		t.Fatalf("Stage = %q, want connect (nothing was ever acked)", re.Stage)
	}
	// 0.05 + 0.1 + … + 1.6 s of backed-off RTOs, then one capped at rtoCeil.
	if want := 0.05*63 + rtoCeil; p.now < want || p.now > want+0.5 {
		t.Fatalf("gave up at t=%.2fs, want ≈ %.2fs", p.now, want)
	}
	if c.ackedBytes != 0 || c.dataDone() || len(p.finAt) != 0 {
		t.Fatalf("blackholed flow acked %d bytes, done=%v, %d FINs", c.ackedBytes, c.dataDone(), len(p.finAt))
	}
	if n, wakeAt := c.Poll(p.now+1, make([]byte, dataHeaderLen+MSS)); n != 0 || !math.IsInf(wakeAt, 1) {
		t.Fatalf("failed core still wants to send (n=%d, wakeAt=%v)", n, wakeAt)
	}
}

// TestFinExhaustionSurfacesError swallows every FIN: the close handshake can
// never be confirmed, so after the bounded exponentially-spaced repeats the
// core must fail with a fin-stage RetryExceededError (the data transfer
// itself succeeded — dataDone holds first).
func TestFinExhaustionSurfacesError(t *testing.T) {
	c, data := testCore(t, 20*1024)
	p := newVirtualPath(t, c)
	p.dropFin = func(int) bool { return true }
	p.run(30, c.dataDone)
	if c.finished() || !bytes.Equal(p.out.Bytes(), data) {
		t.Fatalf("data phase: finished=%v err=%v, %d of %d bytes delivered", c.finished(), c.err, p.out.Len(), len(data))
	}
	p.run(30, nil)
	if re := retryErr(t, c); re.Stage != "fin" || re.Attempts != finRetries {
		t.Fatalf("err = %v, want fin-stage RetryExceededError after %d attempts", c.err, finRetries)
	}
	if len(p.finAt) != finRetries {
		t.Fatalf("%d FINs sent, want exactly %d", len(p.finAt), finRetries)
	}
	// Gaps double from the 5 ms floor (2 ms path) up to finGapCeil; the
	// verdict comes one last gap after the last copy.
	gap := 0.005
	for i := 1; i < finRetries; i++ {
		if got := p.finAt[i] - p.finAt[i-1]; math.Abs(got-gap) > 1e-9 {
			t.Errorf("FIN %d came %.1f ms after the previous, want %.1f ms", i+1, got*1e3, gap*1e3)
		}
		gap = min(2*gap, finGapCeil)
	}
	if got := p.now - p.finAt[finRetries-1]; math.Abs(got-gap) > 1e-9 {
		t.Errorf("gave up %.1f ms after the last FIN, want %.1f ms", got*1e3, gap*1e3)
	}
	// A confirmation that arrives after the verdict does not resurrect it.
	c.OnAck(Ack{FlowID: c.flowID, CumAck: c.board.CumAck(), EchoSeq: finAckEcho}, p.now)
	if c.finAcked || c.err == nil {
		t.Fatal("a late fin-ack overturned the fin-stage failure")
	}
}

// forgedAcks are acknowledgments no honest receiver of this flow would send.
// At the parent commit the first two spin OnAck (the first forever, with the
// sender's mutex held), the third completes a flow that has sent nothing and
// the fourth is accepted as the flow's own.
var forgedAcks = []struct {
	name string
	ack  Ack
}{
	{"range from MinInt64", Ack{FlowID: 1, Ranges: []AckRange{{math.MinInt64, 0}}, EchoSeq: -1}},
	{"range to MaxInt64", Ack{FlowID: 1, Ranges: []AckRange{{0, math.MaxInt64}}, EchoSeq: -1}},
	{"cumulative ack of the whole flow", Ack{FlowID: 1, CumAck: 10, EchoSeq: 9}},
	{"another flow's ack", Ack{FlowID: 2, CumAck: 3, Ranges: []AckRange{{0, 2}}, EchoSeq: 2}},
}

// checkForged applies a to c (which has sent the first `sent` of its 10
// packets) with a deadline, and checks the contract: OnAck returns, nothing
// unsent is acknowledged, the flow is not completed, the window is intact.
func checkForged(t *testing.T, c *sendCore, a Ack, sent int64, now float64) {
	t.Helper()
	returned := make(chan struct{})
	go func() {
		c.OnAck(a, now)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("OnAck did not return")
	}
	if c.board.Next() != sent || c.board.CumAck() > sent {
		t.Fatalf("board is [%d,%d) after the ack, sent only %d", c.board.CumAck(), c.board.Next(), sent)
	}
	if c.ackedBytes > c.sentBytes || c.ackedBytes > sent*MSS {
		t.Fatalf("acked %d bytes with %d sent", c.ackedBytes, c.sentBytes)
	}
	if c.dataDone() || c.finished() {
		t.Fatalf("a forged ack completed the flow (done=%v finished=%v)", c.dataDone(), c.finished())
	}
}

// TestForgedAckCannotHangOrComplete: a forged or corrupt ACK can neither hang
// nor complete a flow. Before anything is sent each row leaves the byte
// ledger untouched; mid-flow it can acknowledge at most what was sent, and
// the next packets still go out fresh rather than "lost" behind a runaway
// sackHigh.
func TestForgedAckCannotHangOrComplete(t *testing.T) {
	for _, row := range forgedAcks {
		t.Run(row.name, func(t *testing.T) {
			c, _ := testCore(t, 10*MSS)
			checkForged(t, c, row.ack, 0, 0)
			if c.sentBytes != 0 || c.rtxBytes != 0 || c.ackedBytes != 0 {
				t.Fatalf("ByteStats moved to (%d,%d,%d) before any send", c.sentBytes, c.rtxBytes, c.ackedBytes)
			}

			buf := make([]byte, dataHeaderLen+MSS)
			now := 0.0
			for i := 0; i < 3; i++ {
				_, now = c.Poll(now, buf)
			}
			checkForged(t, c, row.ack, 3, now)
			if row.ack.FlowID != c.flowID && c.ackedBytes != 0 {
				t.Fatalf("another flow's ack acknowledged %d bytes", c.ackedBytes)
			}
			for want := int64(3); want < 10; want++ {
				n, wakeAt := c.Poll(now, buf)
				if h, _, err := decodeData(buf[:n]); err != nil || h.Seq != want {
					t.Fatalf("after the forged ack the core sent seq %d (%v), want fresh seq %d", h.Seq, err, want)
				}
				now = wakeAt
			}
			if c.rtx != 0 {
				t.Fatalf("%d spurious retransmissions after the forged ack", c.rtx)
			}
		})
	}
}

// TestCoreWarmCycleAllocatesNothing pins the shared FIFO inside the
// transport: a warm Poll / Receiver / decodeAck / OnAck cycle with steady
// loss and retransmission allocates nothing — the datagram buffer and the
// ACK-range scratch are the caller's. (The old sender's rtxQ = rtxQ[1:] cost
// one allocation per detected loss here.)
func TestCoreWarmCycleAllocatesNothing(t *testing.T) {
	c, _ := testCore(t, 6000*MSS)
	buf := make([]byte, dataHeaderLen+MSS)
	ackBuf := make([]byte, 1024)
	r := NewReceiver(nil, nil)
	var scratch []AckRange
	now, sends := 0.0, 0
	cycle := func() {
		for i := 0; i < 256; i++ {
			n, wakeAt := c.Poll(now, buf)
			now = wakeAt
			if n == 0 {
				continue
			}
			h, payload, _ := decodeData(buf[:n])
			if sends++; sends%8 == 0 {
				continue // lost on the wire
			}
			ack, _ := r.onData(h, payload)
			m := encodeAck(ackBuf, ack)
			a, err := decodeAck(ackBuf[:m], scratch)
			if err != nil {
				t.Fatal(err)
			}
			scratch = a.Ranges
			c.OnAck(a, now+0.0005)
		}
	}
	for i := 0; i < 4; i++ {
		cycle() // warm: ring, FIFO backing, range scratch, PCC's MI records
	}
	rtxBefore := c.rtx
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("a warm Poll/OnAck cycle allocates %.1f objects per 256 polls, want 0", avg)
	}
	if c.rtx-rtxBefore < 100 || c.finished() || c.dataDone() {
		t.Fatalf("cycle exercised %d retransmissions (done=%v); want steady loss recovery mid-flow", c.rtx-rtxBefore, c.dataDone())
	}
}

// TestReceiverWarmAllocatesNothing pins the receiver's per-packet path: an
// out-of-order packet, the in-order one that releases it and each encoded
// ACK allocate nothing once the payload ring is warm. (The map receiver
// allocated twice per out-of-order packet: the payload copy and the ACK's
// copy of the range list.)
func TestReceiverWarmAllocatesNothing(t *testing.T) {
	r := NewReceiver(nil, io.Discard)
	payload := make([]byte, MSS)
	ackBuf := make([]byte, 1024)
	next := int64(0)
	// Every other sequence of a 256-packet block first (so the ACKs carry
	// the full 32 ranges), then the rest, which releases the whole block.
	cycle := func() {
		for _, first := range []int64{1, 0} {
			for seq := next + first; seq < next+256; seq += 2 {
				a, _ := r.onData(DataHeader{FlowID: 1, Seq: seq, SentNanos: seq, PayloadLen: MSS}, payload)
				encodeAck(ackBuf, a)
			}
		}
		next += 256
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("a warm receiver allocates %.1f objects per 256 packets and ACKs, want 0", avg)
	}
	if r.win.CumAck() != next || r.BytesWritten() != next*MSS {
		t.Fatalf("cum %d, %d bytes written; want %d, %d", r.win.CumAck(), r.BytesWritten(), next, next*MSS)
	}
}

// TestSendCoreScalesRateSeedsToWireSize pins the rate seeds of a core built
// from core.DefaultConfig, which derives them for 1500-byte packets: filling
// in the wire's 1400-byte size rescales them, so the RTT hint core.New
// back-solves from InitialRate survives exactly, and the rate floor stays
// two packets per second of the wire's size.
func TestSendCoreScalesRateSeedsToWireSize(t *testing.T) {
	const rtt = 0.05
	c, err := newSendCore(core.DefaultConfig(rtt), bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.pcc.SRTT(); math.Abs(got-rtt) > 1e-12 {
		t.Errorf("SRTT seed %v, want %v", got, rtt)
	}
	// Start put the controller in its Starting state, at InitialRate.
	if got, want := c.pcc.Controller().Rate(), 2*float64(MSS)/rtt; got != want {
		t.Errorf("initial rate %v, want %v", got, want)
	}
	// An unstarted sender reports its rate floor.
	floor := func(cfg core.Config) float64 { return core.New(cfg, nil).Rate(0) }
	if got, want := floor(wireConfig(core.DefaultConfig(rtt))), 2*float64(MSS); got != want {
		t.Errorf("rate floor %v, want %v", got, want)
	}
	pinned := core.DefaultConfig(rtt)
	pinned.PacketSize = 1000
	if got := wireConfig(pinned); got != pinned {
		t.Errorf("a pinned PacketSize must leave the config untouched: %+v", got)
	}
	if got := floor(pinned); got != 2000 {
		t.Errorf("pinned-size rate floor %v, want 2000 (2 packets/s of 1000 B)", got)
	}
}
