package transport

import (
	"io"
	"sync"

	"pcc/internal/sack"
)

// reorderSlots is how far ahead of the cumulative point a datagram may land
// and still be buffered, in packets: 1<<15 covers a 1 Gbps × 300 ms
// bandwidth-delay product of 1400-byte packets (≈ 26 800). A datagram at or
// beyond it is dropped unacknowledged, as a receiver with no buffer for it
// would drop it, so the sender retransmits it later. The bound is what keeps
// a peer that never fills a hole from growing the receiver without limit.
const reorderSlots = 1 << 15

// minSlots is the payload ring's first allocation, in slots.
const minSlots = 64

// Receiver reassembles one flow arriving over UDP and acknowledges every
// data packet with a cumulative ACK plus up to 32 received ranges — the
// SACK feedback PCC's monitor consumes. It requires no congestion-control
// intelligence (§2.3: "No receiver change"). What arrived is a
// sack.RecvWindow, the simulator receiver's bitmap; out-of-order payloads
// wait in a ring of reusable slots, so memory is bounded by reorderSlots and
// a warm receiver allocates nothing per packet.
type Receiver struct {
	conn UDPConn
	out  io.Writer

	mu       sync.Mutex
	win      sack.RecvWindow
	slots    [][]byte   // out-of-order payloads, seq & (len-1); len is 0 or a power of two
	ranges   []AckRange // the last ACK's ranges, reused
	total    int64      // flow length in packets, from fin; -1 unknown
	uniq     int64
	beyond   int64 // datagrams dropped reorderSlots or more ahead
	bytesOut int64

	done      chan struct{}
	closeOnce sync.Once
}

// NewReceiver wraps a bound UDP socket. Payloads are written to out in
// order. Call Run to start.
func NewReceiver(conn UDPConn, out io.Writer) *Receiver {
	return &Receiver{conn: conn, out: out, total: -1, done: make(chan struct{})}
}

// Done is closed when the whole flow (announced by the sender's fin) has
// been received and written out.
func (r *Receiver) Done() <-chan struct{} { return r.done }

// UniquePackets returns the count of distinct data packets received.
func (r *Receiver) UniquePackets() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.uniq
}

// BeyondWindow returns the count of data datagrams dropped unacknowledged
// because they landed reorderSlots or more ahead of the cumulative point.
func (r *Receiver) BeyondWindow() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.beyond
}

// BytesWritten returns the number of in-order payload bytes delivered.
func (r *Receiver) BytesWritten() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesOut
}

// Run processes packets until the socket is closed. Flow completion closes
// Done and answers every FIN with a fin-ack, but Run keeps reading — the
// sender may need the confirmation re-sent if it was lost — so the caller
// observes completion via Done and then closes the socket, which makes Run
// return nil.
func (r *Receiver) Run() error {
	buf := make([]byte, 65536)
	ackBuf := make([]byte, 1024)
	for {
		n, addr, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-r.done:
				return nil
			default:
			}
			return err
		}
		if n == 0 {
			continue
		}
		var a Ack
		ok := false
		switch buf[0] {
		case typeData:
			if h, payload, err := decodeData(buf[:n]); err == nil {
				a, ok = r.onData(h, payload)
			}
		case typeFin:
			if flowID, total, err := decodeFin(buf[:n]); err == nil {
				a, ok = r.onFin(flowID, total)
			}
		}
		if ok {
			r.conn.WriteToUDP(ackBuf[:encodeAck(ackBuf, a)], addr)
		}
		// After the answer: the caller closes the socket once Done fires,
		// and a fin-ack written after that would be lost. A lost one still
		// means more FIN copies arrive, each answered here, until then.
		if r.complete() {
			r.closeOnce.Do(func() { close(r.done) })
		}
	}
}

func (r *Receiver) complete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total >= 0 && r.win.CumAck() >= r.total
}

// onData ingests one data packet and returns the ACK that answers it: in-order
// payloads stream to the writer, out-of-order ones wait in their ring slot.
// It returns ok = false, and records only the drop (BeyondWindow), for a
// datagram reorderSlots or more ahead of the cumulative point. The ACK's
// Ranges are the lowest runs above the cumulative point, at most what the
// wire carries, in a slice the receiver reuses: valid until the next call.
func (r *Receiver) onData(h DataHeader, payload []byte) (a Ack, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cum := r.win.CumAck()
	if h.Seq > cum && h.Seq-cum >= reorderSlots {
		r.beyond++
		return Ack{}, false
	}
	if r.win.Add(h.Seq) {
		r.uniq++
		if h.Seq > cum {
			r.stash(h.Seq, payload)
		} else {
			r.writeLocked(payload)
			for seq := cum + 1; seq < r.win.CumAck(); seq++ {
				r.writeLocked(r.slots[seq&int64(len(r.slots)-1)])
			}
		}
	}
	r.ranges = r.ranges[:0]
	for s, e := r.win.NextRun(0); s >= 0 && len(r.ranges) < maxAckRanges; s, e = r.win.NextRun(e + 1) {
		r.ranges = append(r.ranges, AckRange{Start: s, End: e})
	}
	return Ack{FlowID: h.FlowID, CumAck: r.win.CumAck(), Ranges: r.ranges, EchoSeq: h.Seq, EchoNanos: h.SentNanos}, true
}

// onFin records the flow length a FIN announces and, once every packet of
// it has arrived, returns the fin-ack that confirms the close: an ordinary
// ack whose EchoSeq is the fin-ack sentinel, carrying the final cumulative
// ack. A negative length announces nothing.
func (r *Receiver) onFin(flowID uint32, total int64) (a Ack, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if total < 0 {
		return Ack{}, false
	}
	r.total = total
	if r.win.CumAck() < total {
		return Ack{}, false
	}
	return Ack{FlowID: flowID, CumAck: r.win.CumAck(), EchoSeq: finAckEcho}, true
}

func (r *Receiver) writeLocked(p []byte) {
	if r.out != nil {
		r.out.Write(p)
	}
	r.bytesOut += int64(len(p))
}

// stash copies an out-of-order payload into its ring slot, reusing the
// slot's buffer, after growing the ring (up to reorderSlots) until seq fits.
func (r *Receiver) stash(seq int64, payload []byte) {
	cum := r.win.CumAck()
	for seq-cum >= int64(len(r.slots)) {
		old := r.slots
		r.slots = make([][]byte, max(minSlots, 2*len(old)))
		// Every buffer moves, live or stale, so none is lost: the old
		// slots map one-to-one onto [cum, cum+len(old)).
		oldMask, mask := int64(len(old)-1), int64(len(r.slots)-1)
		for s := cum; s < cum+int64(len(old)); s++ {
			r.slots[s&mask] = old[s&oldMask]
		}
	}
	slot := &r.slots[seq&int64(len(r.slots)-1)]
	*slot = append((*slot)[:0], payload...)
}
