package netem

import (
	"fmt"
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
// Arrivals are lazy too. A delay hop that feeds the link (a flow's access
// segment, see Topology) does not post a delivery event whose only effect
// would be to call Send: it posts the packet into the link's inbox with
// SendAt, stamped (at, seq) with the sequence number that event would have
// drawn (sim.Engine.DrawSeq). The inbox is sorted by (at, seq), and each
// arrival is admitted — as a Send at its own instant: completions strictly
// before at, enqueue, start if idle — by the first touch of the link it
// precedes. Like the wire head, inbox entries are link-local: they are not
// engine events, Engine.Pending does not count them and Engine.Reset does not
// see them (Reset here returns them to Pool).
//
// Invariant: a link has a pending touch no later than the first instant its
// lazy state must be made real — for a packet on the wire, its delivery; for
// an idle, up link with a non-empty inbox, the delivery of the inbox head
// were it admitted, head.at+size/rate+delay. The propagation pipe provides
// the touch whenever its head is due by then — a loaded link with delay >=
// one serialization time, where every delivery also completes what finished
// behind it and admits what arrived in front of it: one engine event per
// packet-hop. Otherwise the link arms its one own event, the wake, there; the
// wake admits, completes and delivers in the same event, and a packet
// completed early by another touch rides the armed wake (carry) instead of
// the pipe. A link that is down arms the wake at the completion itself, so
// the clock still reaches the doomed packet's completion (a down link needs no
// touch for its inbox: arrivals only queue there, at their own instants,
// whenever they are admitted). SetRate re-covers, since a faster rate moves
// the inbox head's delivery earlier.
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
// is inclusive. An inbox arrival admitted at exactly a txEnd follows the same
// rule.
//
// Admission rules. A touch from another event — a direct Send, a getter or a
// setter — admits exactly the arrivals that would have fired before it:
// sim.Engine.Precedes(at, seq), which outside any callback means everything
// at or before the clock. The link's own touches (its wake and its pipe
// deliveries) admit every arrival due by the clock: own touches yield. Their
// sequence numbers are drawn lazily — a wake is armed when an arrival is
// posted, a pipe entry when a completion is processed — so they are older than
// the ones a delivery-event link would have drawn, which armed its wake only
// when the arrival was delivered: a wake armed when the head arrival was
// posted would outrank same-instant arrivals posted after it that the
// delivery-event link let in first. Pure (at, seq) for own touches moves the
// fig5, fig6 and fig9 digests; the yield rule keeps all 24.
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
	// inbox holds the arrivals feeding delay hops posted ahead of time
	// (SendAt), sorted by (at, seq) from ibHead on; the prefix before ibHead
	// is admitted and dead. Admitting the last entry truncates the slice, so
	// an inbox with nothing pending has length 0 — the one compare a link
	// without a feeder pays per touch. A busy link's inbox never drains to
	// empty, so there the prefix is compacted away (see room) instead.
	inbox  []arrival
	ibHead int

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
}

// NewLink builds a link with the given queue and parameters. The rng drives
// the loss process only; a nil rng disables random loss regardless of the
// loss rate.
func NewLink(eng *sim.Engine, q Queue, rateBps, delay, lossRate float64, rng *rand.Rand) *Link {
	l := &Link{Eng: eng, Queue: q, rate: rateBps, delay: delay, lossRate: lossRate, rng: WrapRng(rng), wakeAt: math.Inf(1)}
	l.wakeFn = l.onWake
	// Sink is typically assigned after construction; the delivery paths
	// read it at delivery time.
	l.deliverFn = func(a any) {
		if len(l.inbox) > 0 {
			l.admit(true)
		}
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
// counters, with the propagation pipe, inbox and queue storage retained. The
// wire head, a packet riding the wake and the inbox's arrivals are on no
// engine event, so Engine.Reset's reclaim cannot see them: they return to
// Pool here. The seed must come from the same derivation-chain position a
// fresh NewLink would have drawn its rng from, so the loss process is
// bit-identical to a fresh build. The caller resets the queue separately
// (capacity may change).
func (l *Link) Reset(rateBps, delay, lossRate float64, seed int64) {
	l.rate, l.delay, l.lossRate = rateBps, delay, lossRate
	l.rng.Reseed(seed)
	l.Pool.Put(l.tx)
	l.Pool.Put(l.carry)
	l.tx, l.carry = nil, nil
	for _, a := range l.inbox[l.ibHead:] {
		l.Pool.Put(a.p)
	}
	l.inbox, l.ibHead = l.inbox[:0], 0
	l.wakeAt = math.Inf(1)
	l.down = false
	l.delivered, l.lost = 0, 0
	l.faultDrops, l.faultDroppedBytes = 0, 0
	l.offeredBytes, l.deliveredBytes, l.lostBytes = 0, 0, 0
}

// arrival is one inbox entry: a packet due at the link at, stamped with the
// sequence number its delivery event would have drawn.
type arrival struct {
	at  float64
	seq uint64
	p   *Packet
}

// Send offers a packet to the link now. Packets rejected by the queue are
// dropped silently (the queue counts them).
func (l *Link) Send(p *Packet) {
	moved := len(l.inbox) > 0 && l.admit(false)
	if l.arrive(p, l.Eng.Now()) || moved {
		l.cover()
	}
}

// SendAt offers p to the link at the instant at, not before the clock, on
// behalf of a delay hop that feeds it: the packet waits in the inbox under
// the sequence number a delivery event posted now would have drawn, and is
// admitted exactly as Send at that instant would have taken it in (see the
// admission rules above). Arrivals may be posted out of time order — a
// feeding hop's delay can shrink mid-flight — and still arrive in (at, seq)
// order.
func (l *Link) SendAt(p *Packet, at float64) {
	e := l.Eng
	if at < e.Now() {
		panic(fmt.Sprintf("netem: SendAt %v before now %v", at, e.Now()))
	}
	a := arrival{at: at, seq: e.DrawSeq(), p: p}
	if n := len(l.inbox); n > 0 && at < l.inbox[n-1].at {
		// A fresh seq is the largest, so a lands after every entry at its
		// instant and before every later one.
		if l.insert(a) == l.ibHead && l.tx == nil {
			l.cover()
		}
		return
	}
	l.room()
	l.inbox = append(l.inbox, a)
	if len(l.inbox)-l.ibHead == 1 && l.tx == nil {
		l.cover()
	}
}

// insert puts a into the inbox at its (at, seq) place and returns the index.
func (l *Link) insert(a arrival) int {
	l.room()
	lo, hi := l.ibHead, len(l.inbox)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); l.inbox[m].at <= a.at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	l.inbox = append(l.inbox, arrival{})
	copy(l.inbox[lo+1:], l.inbox[lo:])
	l.inbox[lo] = a
	return lo
}

// room compacts the admitted prefix away when the inbox is full and at least
// half of it is dead, so appending neither grows it without bound behind a
// busy link nor copies a long live run for a slot or two.
func (l *Link) room() {
	if n := len(l.inbox); n == cap(l.inbox) && l.ibHead > 0 && 2*l.ibHead >= n {
		l.inbox = l.inbox[:copy(l.inbox, l.inbox[l.ibHead:])]
		l.ibHead = 0
	}
}

// admit takes in the inbox arrivals the current touch comes after, each as a
// Send at its own instant, and reports whether there were any. own marks a
// touch by the link's own wake or pipe delivery, which takes in every arrival
// due by the clock (own touches yield).
func (l *Link) admit(own bool) bool {
	e := l.Eng
	now := e.Now()
	i := l.ibHead
	for ; i < len(l.inbox); i++ {
		a := &l.inbox[i]
		if a.at > now || !own && !e.Precedes(a.at, a.seq) {
			break
		}
		l.arrive(a.p, a.at)
	}
	if i == l.ibHead {
		return false
	}
	if i == len(l.inbox) {
		l.inbox, l.ibHead = l.inbox[:0], 0
	} else {
		l.ibHead = i
	}
	return true
}

// arrive is Send's state transition at an arrival's own instant: the
// completions strictly before at (an arrival sees the queue before a
// completion at this very instant pops it: the tie rule), the enqueue, and a
// start if the serializer idles. It reports whether the serializer moved.
func (l *Link) arrive(p *Packet, at float64) (moved bool) {
	for l.tx != nil && l.txEnd < at {
		l.finish()
		moved = true
	}
	l.offeredBytes += int64(p.Size)
	if !l.Queue.Enqueue(p, at) {
		l.Pool.Put(p)
	} else if l.tx == nil && !l.down {
		l.transmit(at)
		moved = true
	}
	return moved
}

// transmit puts the queue's next packet on the wire at time at, or idles the
// serializer when the queue is empty.
func (l *Link) transmit(at float64) {
	p := l.Queue.Dequeue(at)
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
		if due := at + l.delay; due == l.wakeAt && l.carry == nil {
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
// head — or, on an idle link, the inbox head — needs it, a wake is armed
// there. The inbox head's instant is computed as its transmit and finish would
// compute it, so the wake lands on its delivery exactly and can carry it.
func (l *Link) cover() {
	var need float64
	switch {
	case l.tx != nil:
		need = l.txEnd
		if !l.down {
			need += l.delay
		}
	case len(l.inbox) > 0 && !l.down:
		a := &l.inbox[l.ibHead]
		need = a.at + float64(a.p.Size)/l.rate + l.delay
	default:
		return
	}
	if min(l.wakeAt, l.pipe.NextAt()) <= need {
		return
	}
	l.wakeAt = need
	l.Eng.PostAt(need, l.wakeFn)
}

// onWake is a wake firing: it admits and completes what is due — the packet
// it was armed for becomes its carry on the way — and delivers the carry.
func (l *Link) onWake() {
	now := l.Eng.Now()
	if len(l.inbox) > 0 {
		l.admit(true)
	}
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
// changed from outside: the arrivals that precede the caller are admitted,
// then the completions due are processed.
func (l *Link) settle() {
	moved := len(l.inbox) > 0 && l.admit(false)
	if l.tx != nil && l.txEnd <= l.Eng.Now() {
		l.sync()
		moved = true
	}
	if moved {
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
// packet on the wire completes when it was going to. An idle link's inbox
// head is delivered at the new rate, so the link re-covers it.
func (l *Link) SetRate(rateBps float64) {
	l.settle()
	l.rate = rateBps
	l.cover()
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

// The counters below are exact at the clock: each getter first admits the
// arrivals that precede it and processes the completions due by now, so the
// conservation identity holds whenever it is sampled (reading Queue's own
// counters after any of them sees the same instant).

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
func (l *Link) OfferedBytes() int64 { l.settle(); return l.offeredBytes }

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
