package netem

import (
	"math"
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
// Serialization is lazy. A completion — the packet on the wire head (tx)
// reaching txEnd — changes nothing another component can see before the
// packet is due at the sink, so it is not an engine event: it is a link-local
// state transition, processed in order and at its own virtual time txEnd
// (down check, loss draw, counters, hand-off to the propagation pipe at
// txEnd+delay, Queue.Dequeue(txEnd), next txEnd) by whichever event touches
// the link next: an arrival (Send), a delivery off the propagation pipe, a
// getter, a setter. The float operations, the loss stream's draw order and the
// Queue's Enqueue/Dequeue(now) call sequence are those of a serializer that
// fired one engine event per completion, so AQMs see the same clock.
//
// Invariant: a link with a packet on the wire has a pending touch no later
// than that packet's delivery. The propagation pipe provides it whenever its
// head is due by then — a loaded link with delay >= one serialization time,
// where every delivery also completes what finished behind it: one engine
// event per packet-hop. Otherwise the link arms its one own event, the wake,
// at txEnd+delay; the wake completes the packet and delivers it in the same
// event, and a packet completed early by another touch rides the armed wake
// (carry) instead of the pipe. Two populations arm the wake at txEnd itself:
// a cross-shard link, whose XDeliver mailbox post must be made at the
// completion instant, and a link that is down, so the clock still reaches the
// doomed packet's completion.
//
// Tie rule: Send processes the completions strictly before now, enqueues, and
// leaves a completion at exactly now to the next touch — arrival first. The
// tie is common (equal packets crossing consecutive equal-rate links arrive
// at exactly a pending txEnd: 5.7 % of accepted arrivals on the WAN trial) and
// the order is observable: a full DropTail refuses the arrival before the
// completion frees a slot. Arrival first is the (at, seq) order a
// per-completion event had — it drew its sequence number when the
// serialization started, after the arriving packet's delivery had drawn its
// own one upstream propagation delay earlier — and the one the recorded
// report digests hold; completion first moves 11 of the 24. Every other touch
// is inclusive.
//
// Rate, delay and loss rate may be changed at any time through the setters
// (the rapidly-changing network of §4.1.7); each brings the link up to the
// clock first, so a change applies from the next transmission (rate) or the
// next completion (delay, loss) exactly.
type Link struct {
	Eng   *sim.Engine
	Queue Queue
	// Sink receives packets that survive transmission and loss.
	Sink func(*Packet)

	// Pool, when set, recycles packets the link drops (queue overflow or
	// wire loss). It must be the free list of the engine that owns this
	// link so recycling never crosses goroutines.
	Pool *PacketPool

	// XDeliver, when set, replaces the propagation stage: packets that
	// survive transmission and loss are handed to XDeliver(delay, p) instead
	// of the local pipe. A sharded Topology installs it on links whose
	// endpoints live on different shards, turning the propagation delay into
	// a cross-shard mailbox post (the delay is the conservative lookahead
	// budget, so it must stay >= the shard group's lookahead). All counters
	// are final before the handoff.
	XDeliver func(delay float64, p *Packet)

	rate     float64 // serialization rate, bytes/s
	delay    float64 // one-way propagation delay, seconds
	lossRate float64 // Bernoulli per-packet wire loss probability
	rng      Rng

	// tx is the packet on the wire head, nil when the serializer is idle or
	// parked; txEnd is when its serialization completes.
	tx    *Packet
	txEnd float64
	// The wake is the link's own engine event (see the invariant above):
	// one is pending at wakeAt, +Inf when none is. A wake is never cancelled
	// — when a setter needs an earlier one the later stays scheduled and
	// fires as a spare touch — so whatever it carries still arrives on time:
	// carry is a completed packet due at the sink at exactly carryAt, which
	// the wake firing then delivers in place of a pipe entry. It is counted
	// delivered, as a pipe entry is.
	wakeAt  float64
	carry   *Packet
	carryAt float64
	wakeFn  func()

	delivered int64
	lost      int64
	// down marks the link administratively down (fault injection, see
	// fault.go): Send still queues (the router buffers), the in-flight train
	// is dropped, and a packet whose serialization completes while down is
	// destroyed into the fault ledger below, parking the serializer.
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
	// deliverFn is the propagation pipe's callback, allocated once so
	// per-packet scheduling needs no capturing closures.
	deliverFn func(any)
	// faultDropFn destroys an in-flight packet flushed from the propagation
	// pipe by SetDown. finish counted it delivered before it entered the
	// pipe, so the ledger moves it from delivered to fault-dropped.
	faultDropFn func(any)
	// pipe is the link's propagation delay line: every packet that survives
	// transmission rides it (or the wake) to the Sink. In-flight packets on a
	// high-BDP link number in the thousands; batching them into one FIFO ring
	// with a single self-rearming scheduler slot keeps the engine's scheduler
	// at O(links), not O(in-flight packets) (see sim.Pipe).
	pipe *sim.Pipe
	// dt caches Queue's concrete type when it is a plain DropTail — the
	// overwhelmingly common case — so the two per-packet queue operations
	// dispatch directly and inline instead of going through the Queue
	// interface.
	dt *DropTail
}

// NewLink builds a link with the given queue and parameters. The rng drives
// the loss process only; a nil rng disables random loss regardless of the
// loss rate.
func NewLink(eng *sim.Engine, q Queue, rateBps, delay, lossRate float64, rng *rand.Rand) *Link {
	l := &Link{Eng: eng, Queue: q, rate: rateBps, delay: delay, lossRate: lossRate, rng: WrapRng(rng), wakeAt: math.Inf(1)}
	l.dt, _ = q.(*DropTail)
	l.wakeFn = l.onWake
	// Sink is typically assigned after construction; the delivery paths
	// read it at delivery time.
	l.deliverFn = func(a any) {
		l.sync()
		l.cover()
		l.Sink(a.(*Packet))
	}
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
// counters, with the propagation pipe and queue storage retained. The wire
// head and a packet riding the wake are on no engine event, so Engine.Reset's
// reclaim cannot see them: they return to Pool here. The seed must come from
// the same derivation-chain position a fresh NewLink would have drawn its rng
// from, so the loss process is bit-identical to a fresh build. The caller
// resets the queue separately (capacity may change).
func (l *Link) Reset(rateBps, delay, lossRate float64, seed int64) {
	l.rate, l.delay, l.lossRate = rateBps, delay, lossRate
	l.dt, _ = l.Queue.(*DropTail)
	l.rng.Reseed(seed)
	l.Pool.Put(l.tx)
	l.Pool.Put(l.carry)
	l.tx, l.carry = nil, nil
	l.wakeAt = math.Inf(1)
	l.down = false
	l.delivered, l.lost = 0, 0
	l.faultDrops, l.faultDroppedBytes = 0, 0
	l.offeredBytes, l.deliveredBytes, l.lostBytes = 0, 0, 0
}

// Send offers a packet to the link. Packets rejected by the queue are
// dropped silently (the queue counts them).
func (l *Link) Send(p *Packet) {
	now := l.Eng.Now()
	moved := false
	// Strictly before now: the arrival sees the queue before a completion at
	// this very instant pops it (the tie rule).
	for l.tx != nil && l.txEnd < now {
		l.finish()
		moved = true
	}
	l.offeredBytes += int64(p.Size)
	var ok bool
	if l.dt != nil {
		ok = l.dt.Enqueue(p, now)
	} else {
		ok = l.Queue.Enqueue(p, now)
	}
	if !ok {
		l.Pool.Put(p)
	} else if l.tx == nil && !l.down {
		l.transmit(now)
		moved = true
	}
	if moved {
		l.cover()
	}
}

// transmit puts the queue's next packet on the wire at time at, or idles the
// serializer when the queue is empty.
func (l *Link) transmit(at float64) {
	var p *Packet
	if l.dt != nil {
		p = l.dt.pop()
	} else {
		p = l.Queue.Dequeue(at)
	}
	l.tx = p
	if p != nil {
		l.txEnd = at + float64(p.Size)/l.rate
	}
}

// finish completes the wire head's serialization at txEnd and starts the
// next one there.
func (l *Link) finish() {
	p, at := l.tx, l.txEnd
	if l.down {
		// The link went down while this packet was on the wire head: it is
		// destroyed, and the serializer parks until SetDown(false) restarts
		// it. The queue keeps its contents (those bytes stay accounted as
		// QueuedBytes).
		l.faultDrops++
		l.faultDroppedBytes += int64(p.Size)
		l.Pool.Put(p)
		l.tx = nil
		return
	}
	if l.lossRate > 0 && l.rng.Valid() && l.rng.Float64() < l.lossRate {
		l.lost++
		l.lostBytes += int64(p.Size)
		l.Pool.Put(p)
	} else {
		l.delivered++
		l.deliveredBytes += int64(p.Size)
		if l.XDeliver != nil {
			l.XDeliver(l.delay, p)
		} else if due := at + l.delay; due == l.wakeAt && l.carry == nil {
			// The pending wake was set for this very delivery: let it carry the
			// packet rather than arm the pipe for a second event.
			l.carry, l.carryAt = p, due
		} else {
			l.pipe.PostAt(due, p)
		}
	}
	l.transmit(at)
}

// sync processes every completion due at or before the clock.
func (l *Link) sync() {
	for now := l.Eng.Now(); l.tx != nil && l.txEnd <= now; {
		l.finish()
	}
}

// cover re-establishes the invariant after the link's state moved: if neither
// the pending wake nor the pipe's head touches the link by the time the wire
// head needs it, a wake is armed there.
func (l *Link) cover() {
	if l.tx == nil {
		return
	}
	need := l.txEnd
	if l.XDeliver == nil && !l.down {
		need += l.delay
	}
	if min(l.wakeAt, l.pipe.NextAt()) <= need {
		return
	}
	l.wakeAt = need
	l.Eng.PostAt(need, l.wakeFn)
}

// onWake is a wake firing: it completes what is due — the packet it was
// armed for becomes its carry on the way — and delivers the carry.
func (l *Link) onWake() {
	now := l.Eng.Now()
	l.sync()
	if l.wakeAt == now {
		l.wakeAt = math.Inf(1)
	}
	var p *Packet
	if l.carry != nil && l.carryAt == now {
		p, l.carry = l.carry, nil
	}
	l.cover()
	if p != nil {
		l.Sink(p)
	}
}

// settle brings the link up to the clock before its state is read or
// changed from outside.
func (l *Link) settle() {
	if l.tx != nil && l.txEnd <= l.Eng.Now() {
		l.sync()
		l.cover()
	}
}

// Rate returns the serialization rate, bytes/s.
func (l *Link) Rate() float64 { return l.rate }

// Delay returns the one-way propagation delay, seconds.
func (l *Link) Delay() float64 { return l.delay }

// LossRate returns the Bernoulli per-packet wire loss probability.
func (l *Link) LossRate() float64 { return l.lossRate }

// SetRate changes the serialization rate from the next transmission on; the
// packet on the wire completes when it was going to.
func (l *Link) SetRate(rateBps float64) {
	l.settle()
	l.rate = rateBps
}

// SetDelay changes the propagation delay from the next completion on.
// Packets already propagating keep their delivery times.
func (l *Link) SetDelay(delay float64) {
	l.settle()
	l.delay = delay
	l.cover()
}

// SetLossRate changes the wire loss probability from the next completion on.
func (l *Link) SetLossRate(lossRate float64) {
	l.settle()
	l.lossRate = lossRate
}

// SetDown changes the link's administrative state. Taking a link down
// destroys its in-flight propagation train (flushed from the pipe and the
// wake into the fault ledger) and parks the serializer: the packet on the
// wire head, if any, is destroyed when its serialization completes, and
// queued packets stay buffered. Bringing the link up restarts transmission
// from the queue.
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
	l.settle()
	l.down = down
	if down {
		l.pipe.Flush(l.faultDropFn)
		if p := l.carry; p != nil {
			l.carry = nil
			l.faultDropFn(p)
		}
	} else if l.tx == nil {
		l.transmit(l.Eng.Now())
	}
	l.cover()
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// The counters below are exact at the clock: each getter first processes the
// completions due by now, so the conservation identity holds whenever it is
// sampled (reading Queue's own counters after any of them sees the same
// instant).

// FaultDropped returns the number of packets destroyed by fault injection
// (in-flight train flushed on SetDown plus wire-head packets finishing while
// down).
func (l *Link) FaultDropped() int64 { l.settle(); return l.faultDrops }

// FaultDroppedBytes returns the wire bytes destroyed by fault injection.
func (l *Link) FaultDroppedBytes() int64 { l.settle(); return l.faultDroppedBytes }

// Delivered returns the number of packets delivered to the sink.
func (l *Link) Delivered() int64 { l.settle(); return l.delivered }

// WireLost returns the number of packets lost to the random-loss process.
func (l *Link) WireLost() int64 { l.settle(); return l.lost }

// OfferedBytes returns the wire bytes of every packet offered to the link,
// accepted or not.
func (l *Link) OfferedBytes() int64 { return l.offeredBytes }

// DeliveredBytes returns the wire bytes delivered to the sink.
func (l *Link) DeliveredBytes() int64 { l.settle(); return l.deliveredBytes }

// WireLostBytes returns the wire bytes lost to the random-loss process.
func (l *Link) WireLostBytes() int64 { l.settle(); return l.lostBytes }

// ledger returns the link's accounting at the clock, unnamed.
func (l *Link) ledger() LinkStats {
	l.settle()
	s := LinkStats{
		Delivered:    l.delivered,
		WireLost:     l.lost,
		QueueDropped: l.Queue.Dropped(),
		FaultDropped: l.faultDrops,

		OfferedBytes:      l.offeredBytes,
		DeliveredBytes:    l.deliveredBytes,
		WireLostBytes:     l.lostBytes,
		QueueDroppedBytes: l.Queue.DroppedBytes(),
		FaultDroppedBytes: l.faultDroppedBytes,
		QueuedBytes:       int64(l.Queue.Bytes()),
	}
	if l.tx != nil {
		s.TxBytes = int64(l.tx.Size)
	}
	return s
}

// TxBytes returns the size of the packet currently serializing (0 when the
// link is idle) — the only bytes inside the link that are neither queued
// nor yet delivered/lost.
func (l *Link) TxBytes() int64 {
	l.settle()
	if l.tx == nil {
		return 0
	}
	return int64(l.tx.Size)
}
