package netem

import "fmt"

// Queue is a router queue. Implementations decide drop policy at enqueue
// (drop-tail) and/or dequeue (CoDel) time. Queues are driven by a Link.
type Queue interface {
	// Enqueue offers p to the queue at time now. It reports whether the
	// packet was accepted; a false return means the packet was dropped.
	Enqueue(p *Packet, now float64) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the queue is empty (an AQM may drop internally and still return the
	// next surviving packet).
	Dequeue(now float64) *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
	// Dropped returns the cumulative number of packets dropped by the queue.
	Dropped() int64
	// DroppedBytes returns the cumulative wire bytes of those drops, so
	// byte-level conservation can be checked per hop even when flows mix
	// packet sizes (a packet count alone cannot say how many bytes a
	// mixed-MTU queue shed).
	DroppedBytes() int64
	// Reset re-specs the queue in place for a new simulation: queued
	// packets drain into pool, drop counters zero, the byte capacity (per
	// flow for fair queueing) is replaced, and dequeue-time drops recycle
	// into pool from then on. Ring storage is kept, so a warm re-spec
	// allocates nothing.
	Reset(capBytes int, pool *PacketPool)
	// usePool routes the queue's dequeue-time drops into pool from now on,
	// leaving its packets and counters as they are; each kind knows whether
	// it keeps a pool. Topology wires its pool into every link's queue
	// through it.
	usePool(pool *PacketPool)
}

// NewQueue builds the queue a kind names, holding at most capBytes bytes
// (per flow for the fair-queueing kinds; negative means unlimited):
// "droptail" (also ""), "codel", "fq" (drop-tail children) or "fqcodel"
// (CoDel children). It is the one list of queue kinds.
func NewQueue(kind string, capBytes int) (Queue, error) {
	switch kind {
	case "", "droptail":
		return NewDropTail(capBytes), nil
	case "codel":
		return NewCoDel(capBytes), nil
	case "fq":
		return NewFQ(capBytes), nil
	case "fqcodel":
		return NewFQCoDel(capBytes), nil
	}
	return nil, fmt.Errorf("unknown queue kind %q (droptail, codel, fq, fqcodel)", kind)
}

// fifo is the common packet ring shared by queue implementations. The ring
// grows geometrically (always to a power of two, so indexing is a mask, not
// a division) and never shrinks; queues in these simulations reach a
// steady-state size quickly, so this avoids per-packet allocation.
type fifo struct {
	buf   []*Packet
	head  int
	count int
	bytes int
}

func (f *fifo) push(p *Packet) {
	if f.count == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.count)&(len(f.buf)-1)] = p
	f.count++
	f.bytes += p.Size
}

func (f *fifo) pop() *Packet {
	if f.count == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.count--
	f.bytes -= p.Size
	return p
}

func (f *fifo) peek() *Packet {
	if f.count == 0 {
		return nil
	}
	return f.buf[f.head]
}

// drain pops every queued packet into pool (discarding when pool is nil),
// leaving the ring storage in place for reuse.
func (f *fifo) drain(pool *PacketPool) {
	for {
		p := f.pop()
		if p == nil {
			return
		}
		pool.Put(p)
	}
}

func (f *fifo) grow() {
	n := len(f.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*Packet, n)
	for i := 0; i < f.count; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = nb
	f.head = 0
}

// DropTail is a FIFO queue with a byte capacity limit. It models the
// shallow- and deep-buffered routers of §4.1.3–§4.1.6 and, with a huge
// capacity, the "bufferbloat" configuration of §4.4.1.
type DropTail struct {
	fifo
	// CapBytes is the capacity in bytes. Zero means "one packet" is still
	// admitted when empty (a link needs at least one packet in flight to
	// make progress); negative means unlimited.
	CapBytes  int
	drops     int64
	dropBytes int64
}

// NewDropTail returns a drop-tail queue holding at most capBytes bytes.
// capBytes < 0 means unlimited.
func NewDropTail(capBytes int) *DropTail {
	return &DropTail{CapBytes: capBytes}
}

// Reset implements Queue.
func (q *DropTail) Reset(capBytes int, pool *PacketPool) {
	q.drain(pool)
	q.CapBytes = capBytes
	q.drops, q.dropBytes = 0, 0
}

// usePool implements Queue. A drop-tail queue drops only at enqueue, where
// the Link recycles, so it keeps no pool.
func (q *DropTail) usePool(*PacketPool) {}

// Enqueue implements Queue. A packet is accepted if the queue is empty (so a
// single-packet buffer is representable with a tiny CapBytes) or if it fits
// within the byte cap.
func (q *DropTail) Enqueue(p *Packet, now float64) bool {
	if q.count > 0 && q.CapBytes >= 0 && q.bytes+p.Size > q.CapBytes {
		q.drops++
		q.dropBytes += int64(p.Size)
		return false
	}
	p.Enq = now
	q.push(p)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue(now float64) *Packet { return q.pop() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.count }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// Dropped implements Queue.
func (q *DropTail) Dropped() int64 { return q.drops }

// DroppedBytes implements Queue.
func (q *DropTail) DroppedBytes() int64 { return q.dropBytes }
