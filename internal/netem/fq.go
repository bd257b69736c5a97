package netem

// FQ implements per-flow fair queueing with a Deficit Round Robin scheduler
// (Shreedhar & Varghese, SIGCOMM '95). Each flow gets its own child queue —
// either a plain drop-tail FIFO ("bufferbloat" when the cap is huge) or a
// CoDel instance (the fq_codel configuration) — and the scheduler serves
// active flows in round-robin order with a byte deficit counter, giving
// long-term per-flow throughput fairness regardless of how aggressive each
// flow's congestion controller is.
//
// FQ is the isolation substrate assumed by §2.4/§4.4 for heterogeneous
// utility functions.
type FQ struct {
	// PerFlowBytes caps each child queue. Negative = unlimited.
	PerFlowBytes int
	// Pool is propagated to child queues (created lazily per flow) so their
	// dequeue-time AQM drops recycle packets.
	Pool *PacketPool
	// codel selects CoDel children (fq_codel) over drop-tail ones.
	codel bool

	// flows is indexed by flow id (small non-negative integers; see
	// Topology.flows), with nil holes for ids never seen.
	flows  []*fqFlow
	active []*fqFlow // round-robin list of flows with queued packets
	next   int       // scheduler position in active
	bytes  int
	count  int
}

type fqFlow struct {
	id      int
	q       Queue
	deficit int
	active  bool
}

// fqQuantum is the DRR quantum in bytes: one MSS per round.
const fqQuantum = 1500

// NewFQ returns a fair queue whose per-flow drop-tail child queues hold at
// most perFlowBytes bytes each (negative = unlimited).
func NewFQ(perFlowBytes int) *FQ {
	return &FQ{PerFlowBytes: perFlowBytes}
}

// NewFQCoDel returns fair queueing with a CoDel child per flow (fq_codel),
// each holding at most perFlowBytes bytes.
func NewFQCoDel(perFlowBytes int) *FQ {
	return &FQ{PerFlowBytes: perFlowBytes, codel: true}
}

func (f *FQ) flow(id int) *fqFlow {
	if id < 0 {
		panic("netem: FQ flow ids must be non-negative")
	}
	if id < len(f.flows) && f.flows[id] != nil {
		return f.flows[id]
	}
	var child Queue
	if f.codel {
		child = NewCoDel(f.PerFlowBytes)
	} else {
		child = NewDropTail(f.PerFlowBytes)
	}
	queueUsePool(child, f.Pool)
	fl := &fqFlow{id: id, q: child}
	f.flows = growPut(f.flows, id, fl)
	return fl
}

// Reset re-specs the fair queue in place for a new simulation: every child
// queue drains into the pool and is re-specced with the new per-flow
// capacity, children created later are sized from it too, and the DRR
// scheduler state clears.
func (f *FQ) Reset(perFlowBytes int) {
	f.PerFlowBytes = perFlowBytes
	for _, fl := range f.flows {
		if fl == nil {
			continue
		}
		switch q := fl.q.(type) {
		case *DropTail:
			q.Reset(perFlowBytes, f.Pool)
		case *CoDel:
			q.Reset(perFlowBytes)
		}
		fl.active = false
		fl.deficit = 0
	}
	f.active = f.active[:0]
	f.next = 0
	f.bytes, f.count = 0, 0
}

// Enqueue implements Queue.
func (f *FQ) Enqueue(p *Packet, now float64) bool {
	fl := f.flow(p.Flow)
	if !fl.q.Enqueue(p, now) {
		// The child queue counted the drop; Dropped() aggregates children.
		return false
	}
	f.bytes += p.Size
	f.count++
	if !fl.active {
		fl.active = true
		fl.deficit = 0
		f.active = append(f.active, fl)
	}
	return true
}

// Dequeue implements Queue, serving active flows by deficit round robin.
func (f *FQ) Dequeue(now float64) *Packet {
	for len(f.active) > 0 {
		if f.next >= len(f.active) {
			f.next = 0
		}
		fl := f.active[f.next]
		if fl.q.Len() == 0 {
			// Child drained (possibly via internal AQM drops): deactivate.
			f.deactivate(f.next)
			continue
		}
		head := f.peekChild(fl)
		if head == nil {
			f.deactivate(f.next)
			continue
		}
		if fl.deficit < head.Size {
			fl.deficit += fqQuantum
			f.next++
			continue
		}
		before := fl.q.Bytes()
		beforeLen := fl.q.Len()
		p := fl.q.Dequeue(now)
		// Account for packets the child's AQM dropped internally plus the
		// packet actually handed to us.
		f.bytes -= before - fl.q.Bytes()
		f.count -= beforeLen - fl.q.Len()
		if p == nil {
			f.deactivate(f.next)
			continue
		}
		fl.deficit -= p.Size
		if fl.q.Len() == 0 {
			f.deactivate(f.next)
		}
		return p
	}
	return nil
}

// peekChild returns the size-bearing head packet of a child queue. Child
// queues are our own implementations, so we can type-switch to peek without
// extending the Queue interface.
func (f *FQ) peekChild(fl *fqFlow) *Packet {
	if q, ok := fl.q.(*CoDel); ok {
		return q.q.peek()
	}
	return fl.q.(*DropTail).peek()
}

func (f *FQ) deactivate(i int) {
	fl := f.active[i]
	fl.active = false
	f.active = append(f.active[:i], f.active[i+1:]...)
	if f.next > i {
		f.next--
	}
}

// Len implements Queue.
func (f *FQ) Len() int { return f.count }

// Bytes implements Queue.
func (f *FQ) Bytes() int { return f.bytes }

// Dropped implements Queue, summing scheduler-level and child-level drops.
func (f *FQ) Dropped() int64 {
	var n int64
	for _, fl := range f.flows {
		if fl != nil {
			n += fl.q.Dropped()
		}
	}
	return n
}

// DroppedBytes implements Queue, summing over the per-flow child queues.
func (f *FQ) DroppedBytes() int64 {
	var n int64
	for _, fl := range f.flows {
		if fl != nil {
			n += fl.q.DroppedBytes()
		}
	}
	return n
}
