package netem

import (
	"math/rand"

	"pcc/internal/sim"
)

// Units helpers. All rates in this repository are bytes per second.

// Mbps converts megabits per second to bytes per second.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

// ToMbps converts bytes per second to megabits per second.
func ToMbps(bps float64) float64 { return bps * 8 / 1e6 }

// KB is 1000 bytes (the paper specifies buffer sizes in KB).
const KB = 1000

// Link models a store-and-forward link: a queue, a serialization rate, a
// propagation delay, and an optional Bernoulli random-loss process applied
// after transmission (wire loss, not queue drop). Delivery is via the Sink
// callback.
//
// Rate, Delay and LossRate may be changed at any time (the rapidly-changing
// network of §4.1.7); changes apply from the next packet transmission.
type Link struct {
	Eng   *sim.Engine
	Queue Queue
	// Rate is the serialization rate, bytes/s.
	Rate float64
	// Delay is the one-way propagation delay, seconds.
	Delay float64
	// LossRate is the Bernoulli per-packet wire loss probability.
	LossRate float64
	// Sink receives packets that survive transmission and loss.
	Sink func(*Packet)

	// Pool, when set, recycles packets the link drops (queue overflow or
	// wire loss). It must be the free list of the engine that owns this
	// link so recycling never crosses goroutines.
	Pool *PacketPool

	// XDeliver, when set, replaces the propagation stage: packets that
	// survive transmission and loss are handed to XDeliver(Delay, p) instead
	// of the local pipe. A sharded Topology installs it on links whose
	// endpoints live on different shards, turning the propagation delay into
	// a cross-shard mailbox post (the delay is the conservative lookahead
	// budget, so it must stay >= the shard group's lookahead). All counters
	// are final before the handoff.
	XDeliver func(delay float64, p *Packet)

	rng       Rng
	busy      bool
	delivered int64
	lost      int64
	// down marks the link administratively down (fault injection, see
	// fault.go): Send still queues (the router buffers), but nothing
	// serializes, the in-flight train is dropped, and arriving finish events
	// for packets already on the wire head are discarded into the fault
	// ledger below.
	down bool
	// faultDrops/faultDroppedBytes count packets destroyed by a fault —
	// the in-flight train flushed when the link went down plus any packet
	// whose serialization completed while down. They are a first-class term
	// of the conservation identity (see LinkStats.Conserved).
	faultDrops        int64
	faultDroppedBytes int64
	// Byte-granular accounting, so conservation can be audited per hop
	// when flows mix packet sizes: offeredBytes counts every byte handed to
	// Send; deliveredBytes/lostBytes split the bytes that finished
	// serialization; the queue tracks its own dropped bytes. The remainder
	// (offered − delivered − lost − queue-dropped − queued) is exactly the
	// packet on the wire head, exposed as TxBytes.
	offeredBytes   int64
	deliveredBytes int64
	lostBytes      int64
	txBytes        int64 // size of the packet serializing now; 0 when idle
	busyUntil      float64
	// finishFn/deliverFn are allocated once so per-packet scheduling needs
	// no capturing closures (see sim.Engine.PostArg). The serializer has at
	// most one outstanding event per link (the packet on the wire head),
	// so it stays a plain engine event.
	finishFn  func(any)
	deliverFn func(any)
	// faultDropFn destroys an in-flight packet flushed from the propagation
	// pipe by SetDown. finish counted it delivered before it entered the
	// pipe, so the ledger moves it from delivered to fault-dropped.
	faultDropFn func(any)
	// pipe is the link's propagation delay line: every packet that survives
	// transmission rides it to the Sink. In-flight packets on a high-BDP
	// link number in the thousands; batching them into one FIFO ring with a
	// single self-rearming scheduler slot keeps the engine's heap at
	// O(links), not O(in-flight packets) (see sim.Pipe).
	pipe *sim.Pipe
	// dt caches Queue's concrete type when it is a plain DropTail — the
	// overwhelmingly common case — so the two per-packet queue operations
	// (Enqueue in Send, Dequeue in transmitNext) dispatch directly and
	// inline instead of going through the Queue interface.
	dt *DropTail
}

// NewLink builds a link with the given queue and parameters. The rng drives
// the loss process only; a nil rng disables random loss regardless of
// LossRate.
func NewLink(eng *sim.Engine, q Queue, rateBps, delay, lossRate float64, rng *rand.Rand) *Link {
	l := &Link{Eng: eng, Queue: q, Rate: rateBps, Delay: delay, LossRate: lossRate, rng: WrapRng(rng)}
	l.dt, _ = q.(*DropTail)
	l.finishFn = func(a any) { l.finish(a.(*Packet)) }
	// Sink is typically assigned after construction; the delivery paths
	// read it at delivery time.
	l.deliverFn = func(a any) { l.Sink(a.(*Packet)) }
	l.faultDropFn = func(a any) {
		p := a.(*Packet)
		l.delivered--
		l.deliveredBytes -= int64(p.Size)
		l.faultDrops++
		l.faultDroppedBytes += int64(p.Size)
		l.Pool.Put(p)
	}
	l.pipe = eng.NewPipe(l.deliverFn)
	return l
}

// Reset re-specs the link in place for a new simulation on a reset engine:
// new rate/delay/loss parameters, a re-seeded loss stream, and zeroed
// counters, with the propagation pipe and queue storage retained. The seed
// must come from the same derivation-chain position a fresh NewLink would
// have drawn its rng from, so the loss process is bit-identical to a fresh
// build. The caller resets the queue separately (capacity may change).
func (l *Link) Reset(rateBps, delay, lossRate float64, seed int64) {
	l.Rate, l.Delay, l.LossRate = rateBps, delay, lossRate
	l.dt, _ = l.Queue.(*DropTail)
	l.rng.Reseed(seed)
	l.busy = false
	l.down = false
	l.delivered, l.lost = 0, 0
	l.faultDrops, l.faultDroppedBytes = 0, 0
	l.offeredBytes, l.deliveredBytes, l.lostBytes, l.txBytes = 0, 0, 0, 0
	l.busyUntil = 0
}

// Send offers a packet to the link. Packets rejected by the queue are
// dropped silently (the queue counts them).
func (l *Link) Send(p *Packet) {
	l.offeredBytes += int64(p.Size)
	var ok bool
	if l.dt != nil {
		ok = l.dt.Enqueue(p, l.Eng.Now())
	} else {
		ok = l.Queue.Enqueue(p, l.Eng.Now())
	}
	if !ok {
		l.Pool.Put(p)
		return
	}
	if !l.busy && !l.down {
		l.transmitNext()
	}
}

// transmitNext pulls the next packet from the queue and schedules its
// serialization completion.
func (l *Link) transmitNext() {
	var p *Packet
	if l.dt != nil {
		p = l.dt.pop()
	} else {
		p = l.Queue.Dequeue(l.Eng.Now())
	}
	if p == nil {
		l.busy = false
		l.txBytes = 0
		return
	}
	l.busy = true
	l.txBytes = int64(p.Size)
	txTime := float64(p.Size) / l.Rate
	l.busyUntil = l.Eng.Now() + txTime
	l.Eng.PostArg(txTime, l.finishFn, p)
}

func (l *Link) finish(p *Packet) {
	if l.down {
		// The link went down while this packet was on the wire head: it is
		// destroyed, and the serializer parks until SetDown(false) restarts
		// it. The queue keeps its contents (those bytes stay accounted as
		// QueuedBytes).
		l.faultDrops++
		l.faultDroppedBytes += int64(p.Size)
		l.Pool.Put(p)
		l.busy = false
		l.txBytes = 0
		return
	}
	if l.LossRate > 0 && l.rng.Valid() && l.rng.Float64() < l.LossRate {
		l.lost++
		l.lostBytes += int64(p.Size)
		l.Pool.Put(p)
	} else {
		l.delivered++
		l.deliveredBytes += int64(p.Size)
		if l.XDeliver != nil {
			l.XDeliver(l.Delay, p)
		} else if l.Delay == 0 {
			// Zero-delay link (the dumbbell bottleneck: all propagation
			// lives in the access hops): the pipe would never batch —
			// delivery lands at the finish instant, so the slot drains
			// before the next serialization completes. Scheduling directly
			// draws the same sequence number and fires the same callback at
			// the same time, skipping the ring bookkeeping.
			l.Eng.PostArg(0, l.deliverFn, p)
		} else {
			l.pipe.Post(l.Delay, p)
		}
	}
	l.transmitNext()
}

// SetDown changes the link's administrative state. Taking a link down
// destroys its in-flight propagation train (flushed from the pipe into the
// fault ledger) and parks the serializer: the packet on the wire head, if
// any, is destroyed when its finish event arrives, and queued packets stay
// buffered. Bringing the link up restarts transmission from the queue.
//
// Two in-flight populations escape the flush by construction, both
// harmlessly: zero-delay deliveries (they complete at the same instant they
// start, before any fault event scheduled later can observe them) and
// out-of-order entries that fell back to plain engine events when the
// link's delay shrank mid-flight (rare, already counted delivered; they
// deliver as if they crossed just before the cut).
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if down {
		l.pipe.Flush(l.faultDropFn)
		return
	}
	if !l.busy {
		l.transmitNext()
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// FaultDropped returns the number of packets destroyed by fault injection
// (in-flight train flushed on SetDown plus wire-head packets finishing while
// down).
func (l *Link) FaultDropped() int64 { return l.faultDrops }

// FaultDroppedBytes returns the wire bytes destroyed by fault injection.
func (l *Link) FaultDroppedBytes() int64 { return l.faultDroppedBytes }

// Delivered returns the number of packets delivered to the sink.
func (l *Link) Delivered() int64 { return l.delivered }

// WireLost returns the number of packets lost to the random-loss process.
func (l *Link) WireLost() int64 { return l.lost }

// OfferedBytes returns the wire bytes of every packet offered to the link,
// accepted or not.
func (l *Link) OfferedBytes() int64 { return l.offeredBytes }

// DeliveredBytes returns the wire bytes delivered to the sink.
func (l *Link) DeliveredBytes() int64 { return l.deliveredBytes }

// WireLostBytes returns the wire bytes lost to the random-loss process.
func (l *Link) WireLostBytes() int64 { return l.lostBytes }

// TxBytes returns the size of the packet currently serializing (0 when the
// link is idle) — the only bytes inside the link that are neither queued
// nor yet delivered/lost.
func (l *Link) TxBytes() int64 { return l.txBytes }
