package netem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcc/internal/sim"
)

// refLink is the event-driven serializer the lazy Link replaced — one engine
// event per completion, then one per delivery — kept here, and only here, as
// the reference the differential test below compares against.
type refLink struct {
	eng               *sim.Engine
	q                 Queue
	rate, delay, loss float64
	rng               Rng
	sink              func(*Packet)
	busy, down        bool
	s                 LinkStats
	pipe              *sim.Pipe
	finishFn, deliver func(any)
}

func newRefLink(eng *sim.Engine, q Queue, rate, delay, loss float64, rng *rand.Rand) *refLink {
	r := &refLink{eng: eng, q: q, rate: rate, delay: delay, loss: loss, rng: WrapRng(rng)}
	r.finishFn = func(a any) { r.finish(a.(*Packet)) }
	r.deliver = func(a any) { r.sink(a.(*Packet)) }
	r.pipe = eng.NewPipe(r.deliver)
	return r
}

func (r *refLink) send(p *Packet) {
	r.s.OfferedBytes += int64(p.Size)
	if r.q.Enqueue(p, r.eng.Now()) && !r.busy && !r.down {
		r.transmitNext()
	}
}

func (r *refLink) transmitNext() {
	p := r.q.Dequeue(r.eng.Now())
	if r.busy = p != nil; !r.busy {
		r.s.TxBytes = 0
		return
	}
	r.s.TxBytes = int64(p.Size)
	r.eng.PostArg(float64(p.Size)/r.rate, r.finishFn, p)
}

func (r *refLink) finish(p *Packet) {
	switch {
	case r.down:
		r.s.FaultDropped++
		r.s.FaultDroppedBytes += int64(p.Size)
		r.busy, r.s.TxBytes = false, 0
		return
	case r.loss > 0 && r.rng.Valid() && r.rng.Float64() < r.loss:
		r.s.WireLost++
		r.s.WireLostBytes += int64(p.Size)
	default:
		r.s.Delivered++
		r.s.DeliveredBytes += int64(p.Size)
		if r.delay == 0 {
			r.eng.PostArg(0, r.deliver, p)
		} else {
			r.pipe.Post(r.delay, p)
		}
	}
	r.transmitNext()
}

func (r *refLink) setDown(down bool) {
	if r.down == down {
		return
	}
	if r.down = down; !down {
		if !r.busy {
			r.transmitNext()
		}
		return
	}
	r.pipe.Flush(func(a any) {
		p := a.(*Packet)
		r.s.Delivered--
		r.s.DeliveredBytes -= int64(p.Size)
		r.s.FaultDropped++
		r.s.FaultDroppedBytes += int64(p.Size)
	})
}

func (r *refLink) stats() LinkStats {
	s := r.s
	s.QueueDropped, s.QueueDroppedBytes, s.QueuedBytes = r.q.Dropped(), r.q.DroppedBytes(), int64(r.q.Bytes())
	return s
}

// linkDriver is what a scripted run needs of either implementation.
type linkDriver struct {
	send                         func(*Packet)
	setDown                      func(bool)
	setRate, setDelay, setLoss   func(float64)
	stats                        func() LinkStats
	setSink                      func(func(*Packet))
	onWire                       func() bool // lazy link only: a packet is mid-serialization
	mutationsOnWire, mutationsIn int
}

func lazyDriver(l *Link) *linkDriver {
	return &linkDriver{
		send: l.Send, setDown: l.SetDown, setRate: l.SetRate, setDelay: l.SetDelay, setLoss: l.SetLossRate,
		stats:   l.ledger,
		setSink: func(f func(*Packet)) { l.Sink = f },
		onWire:  func() bool { return l.tx != nil && l.txEnd > l.Eng.Now() },
	}
}

func refDriver(r *refLink) *linkDriver {
	return &linkDriver{
		send: r.send, setDown: r.setDown,
		setRate:  func(v float64) { r.rate = v },
		setDelay: func(v float64) { r.delay = v },
		setLoss:  func(v float64) { r.loss = v },
		stats:    r.stats,
		setSink:  func(f func(*Packet)) { r.sink = f },
	}
}

const (
	opSend = iota
	opDown
	opUp
	opRate
	opDelay
	opLoss
)

type linkOp struct {
	at   float64
	kind int
	size int
	val  float64
}

// linkScript draws a seeded schedule: arrivals of mixed sizes alternating
// between overload and a trickle, and mutations at random instants — flaps
// shorter and much longer than one serialization, rate steps, delay steps
// that both grow and shrink (so the pipe's overtaking fallback runs), loss
// steps.
func linkScript(rng *rand.Rand, rate float64, delays []float64) []linkOp {
	tx := 1500 / rate
	var ops []linkOp
	t := 0.0
	for i := 0; i < 600; i++ {
		gap := 0.25 * tx // about twice the mean service rate
		if (i/60)%2 == 1 {
			gap = 4 * tx
		}
		t += rng.ExpFloat64() * gap
		ops = append(ops, linkOp{at: t, kind: opSend, size: []int{64, 576, 1500}[rng.Intn(3)]})
	}
	for i := 0; i < 60; i++ {
		at := rng.Float64() * t
		switch rng.Intn(4) {
		case 0:
			dur := 0.3 * tx
			if rng.Intn(2) == 0 {
				dur = 20 * tx * rng.Float64()
			}
			ops = append(ops, linkOp{at: at, kind: opDown}, linkOp{at: at + dur, kind: opUp})
		case 1:
			ops = append(ops, linkOp{at: at, kind: opRate, val: rate * (0.5 + 1.5*rng.Float64())})
		case 2:
			ops = append(ops, linkOp{at: at, kind: opDelay, val: delays[rng.Intn(len(delays))]})
		case 3:
			ops = append(ops, linkOp{at: at, kind: opLoss, val: []float64{0, 0.05, 0.3}[rng.Intn(3)]})
		}
	}
	return ops
}

// play runs a script against one implementation on its own engine and
// returns every delivery instant by sequence number plus the ledger sampled
// right after each mutation and at the end.
func play(t *testing.T, eng *sim.Engine, d *linkDriver, ops []linkOp) (map[int64]float64, []LinkStats) {
	got := map[int64]float64{}
	d.setSink(func(p *Packet) {
		if _, dup := got[p.Seq]; dup {
			t.Errorf("packet %d delivered twice", p.Seq)
		}
		got[p.Seq] = eng.Now()
	})
	var samples []LinkStats
	for i, op := range ops {
		seq, op := int64(i), op
		eng.At(op.at, func() {
			if op.kind == opSend {
				d.send(&Packet{Seq: seq, Flow: int(seq % 5), Size: op.size})
				return
			}
			d.mutationsIn++
			if d.onWire != nil && d.onWire() {
				d.mutationsOnWire++
			}
			switch op.kind {
			case opDown:
				d.setDown(true)
			case opUp:
				d.setDown(false)
			case opRate:
				d.setRate(op.val)
			case opDelay:
				d.setDelay(op.val)
			case opLoss:
				d.setLoss(op.val)
			}
			samples = append(samples, d.stats())
		})
	}
	eng.Run()
	return got, append(samples, d.stats())
}

// TestLazyLinkMatchesEventDrivenReference is the differential test behind
// the lazy serializer: over seeded random arrivals and mutations — landing,
// among other instants, while a packet is on the wire — the Link and the
// per-completion-event reference deliver the same packets at the same
// instants, drop the same set, and show the same conserved ledger at every
// mutation instant and at the end.
func TestLazyLinkMatchesEventDrivenReference(t *testing.T) {
	t.Parallel()
	const rate = 1500 * 100 // 10 ms per 1500 B: overload phases outlast CoDel's 100 ms interval
	tx := 1500.0 / rate
	delays := []float64{0, tx / 2, 50 * tx}
	queues := map[string]func() Queue{
		"droptail": func() Queue { return NewDropTail(4 * 1500) },
		"codel":    func() Queue { return NewCoDel(30 * 1500) },
		"fqcodel":  func() Queue { return NewFQCoDel(10 * 1500) },
	}
	for qname, mkq := range queues {
		for di, delay := range delays {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s/delay%d/seed%d", qname, di, seed)
				ops := linkScript(rand.New(rand.NewSource(seed*100+int64(di))), rate, delays)

				engL := sim.NewEngine()
				lazy := lazyDriver(NewLink(engL, mkq(), rate, delay, 0.02, rand.New(rand.NewSource(seed))))
				gotL, statsL := play(t, engL, lazy, ops)

				engR := sim.NewEngine()
				ref := refDriver(newRefLink(engR, mkq(), rate, delay, 0.02, rand.New(rand.NewSource(seed))))
				gotR, statsR := play(t, engR, ref, ops)

				if len(gotL) != len(gotR) {
					t.Fatalf("%s: lazy delivered %d packets, reference %d", name, len(gotL), len(gotR))
				}
				for seq, at := range gotR {
					if lat, ok := gotL[seq]; !ok || lat != at {
						t.Fatalf("%s: packet %d delivered at %v (present %v), reference at %v", name, seq, lat, ok, at)
					}
				}
				for i := range statsR {
					if statsL[i] != statsR[i] {
						t.Fatalf("%s: ledger sample %d/%d:\n lazy %+v\n ref  %+v", name, i, len(statsR), statsL[i], statsR[i])
					}
					if !statsL[i].Conserved() {
						t.Fatalf("%s: ledger sample %d not conserved: %+v", name, i, statsL[i])
					}
				}
				if len(gotR) == 0 || statsR[len(statsR)-1].FaultDropped == 0 || statsR[len(statsR)-1].WireLost == 0 || statsR[len(statsR)-1].QueueDropped == 0 {
					t.Fatalf("%s: script too tame to mean anything: %+v", name, statsR[len(statsR)-1])
				}
				if lazy.mutationsOnWire == 0 || lazy.mutationsOnWire == lazy.mutationsIn {
					t.Fatalf("%s: %d of %d mutations landed mid-serialization; want some of each", name, lazy.mutationsOnWire, lazy.mutationsIn)
				}
				if engL.Processed() >= engR.Processed() {
					t.Fatalf("%s: lazy link ran %d events, reference %d", name, engL.Processed(), engR.Processed())
				}
			}
		}
	}
}

// TestLinkTieArrivalSeesQueueBeforeCompletion pins the tie rule. Two
// equal-rate links in series carry equal packets, the second behind a
// DropTail that a burst fills at the instant the first link's train starts
// to arrive, so every arrival lands at exactly a pending completion. The
// arrival must see the queue before the completion pops it — the first one
// is refused, as with a per-completion event scheduled one serialization
// before the arrival's — and a completion-first link would accept all.
func TestLinkTieArrivalSeesQueueBeforeCompletion(t *testing.T) {
	t.Parallel()
	// Powers of two throughout, so every sum below is exact in float64.
	const (
		rate = 1500 * 1024 // one packet per 2^-10 s
		tx   = 1.0 / 1024  // serialization time
		prop = 4.0 / 1024  // first link's propagation delay
		k    = 6           // second link's queue capacity, packets
		n    = 12          // train length
	)
	run := func(second func(eng *sim.Engine, q Queue) (send func(*Packet), setSink func(func(*Packet)))) (dropped int64, firstDrop int64, delivered int) {
		eng := sim.NewEngine()
		q := NewDropTail(k * 1500)
		send2, setSink := second(eng, q)
		setSink(func(p *Packet) { delivered++ })
		first := NewLink(eng, NewDropTail(-1), rate, prop, 0, nil)
		firstDrop = -1
		first.Sink = func(p *Packet) {
			before := q.Dropped()
			send2(p)
			if q.Dropped() != before && firstDrop < 0 {
				firstDrop = p.Seq
			}
		}
		eng.At(0, func() {
			for i := int64(0); i < n; i++ {
				first.Send(&Packet{Seq: i, Size: 1500})
			}
		})
		// One on the wire plus a full queue, completing at 5tx, 6tx, … —
		// the instants the train arrives at.
		eng.At(prop, func() {
			for i := int64(0); i <= k; i++ {
				send2(&Packet{Seq: 100 + i, Size: 1500})
			}
		})
		eng.Run()
		return q.Dropped(), firstDrop, delivered
	}
	lazyDrops, lazyFirst, lazyGot := run(func(eng *sim.Engine, q Queue) (func(*Packet), func(func(*Packet))) {
		l := NewLink(eng, q, rate, 0, 0, nil)
		return l.Send, func(f func(*Packet)) { l.Sink = f }
	})
	refDrops, refFirst, refGot := run(func(eng *sim.Engine, q Queue) (func(*Packet), func(func(*Packet))) {
		r := newRefLink(eng, q, rate, 0, 0, nil)
		return r.send, func(f func(*Packet)) { r.sink = f }
	})
	if lazyDrops != 1 || lazyFirst != 0 || lazyGot != n+k {
		t.Fatalf("lazy link: %d drops (first seq %d), %d delivered; want the train's first packet refused and %d delivered",
			lazyDrops, lazyFirst, lazyGot, n+k)
	}
	if refDrops != lazyDrops || refFirst != lazyFirst || refGot != lazyGot {
		t.Fatalf("reference: %d drops (first seq %d), %d delivered; lazy link %d/%d/%d", refDrops, refFirst, refGot, lazyDrops, lazyFirst, lazyGot)
	}

	// The same ties with the arrival coming out of the link's inbox, each
	// against the pipe-fed reference (inbox_test.go) and a pinned outcome:
	// which packets arrive, and when, in units of one serialization.
	for _, row := range []struct {
		name   string
		access []float64
		cap    int
		script func(r *feedRig)
		want   map[int64]float64
	}{{
		// The train of the test above, arriving through an access hop: the
		// first arrival lands at exactly the pending txEnd of a full queue and
		// is refused (arrival first).
		name: "inbox-arrival-at-txEnd", access: []float64{prop + tx}, cap: k * 1500,
		script: func(r *feedRig) {
			for i := int64(0); i < n; i++ {
				r.eng.At(float64(i)*tx, func() { r.send(0, &Packet{Seq: i, Size: 1500}) })
			}
			r.eng.At(prop, func() {
				for i := int64(0); i <= k; i++ {
					r.direct(&Packet{Seq: 100 + i, Size: 1500})
				}
			})
		},
		want: map[int64]float64{100: 5, 101: 6, 102: 7, 103: 8, 104: 9, 105: 10, 106: 11,
			1: 12, 2: 13, 3: 14, 4: 15, 5: 16, 6: 17, 7: 18, 8: 19, 9: 20, 10: 21, 11: 22},
	}, {
		// Packet 1 is posted at 0 for 8 and arms the idle link's wake for its
		// delivery at 9; packet 2, posted at 5 for 9, draws a later seq than
		// that wake, and packet 3 fills the one-packet queue at 8.5. A
		// delivery-event link armed its wake only when packet 1 arrived, after
		// packet 2 was posted, so packet 2 met the full queue first and was
		// refused: own touches yield. Under pure (at, seq) the wake would
		// complete packet 1 first, free the queue and let packet 2 in.
		name: "inbox-arrival-at-wake", access: []float64{8 * tx, 4 * tx}, cap: 1500,
		script: func(r *feedRig) {
			r.eng.At(0, func() { r.send(0, &Packet{Seq: 1, Size: 1500}) })
			r.eng.At(5*tx, func() { r.send(1, &Packet{Seq: 2, Size: 1500}) })
			r.eng.At(8.5*tx, func() { r.direct(&Packet{Seq: 3, Size: 1500}) })
		},
		want: map[int64]float64{1: 9, 3: 10},
	}, {
		// A direct Send at the instant of a pending inbox entry with a lower
		// seq: the entry was posted first, so it is admitted first.
		name: "direct-send-after-inbox-entry", access: []float64{2 * tx}, cap: -1,
		script: func(r *feedRig) {
			r.eng.At(0, func() {
				r.send(0, &Packet{Seq: 1, Size: 1500})
				r.eng.At(2*tx, func() { r.direct(&Packet{Seq: 2, Size: 1500}) })
			})
		},
		want: map[int64]float64{1: 3, 2: 4},
	}, {
		// ... and with a higher seq: the direct Send's event was scheduled
		// before the entry was posted, so it goes first.
		name: "direct-send-before-inbox-entry", access: []float64{2 * tx}, cap: -1,
		script: func(r *feedRig) {
			r.eng.At(2*tx, func() { r.direct(&Packet{Seq: 2, Size: 1500}) })
			r.eng.At(0, func() { r.send(0, &Packet{Seq: 1, Size: 1500}) })
		},
		want: map[int64]float64{2: 3, 1: 4},
	}} {
		t.Run(row.name, func(t *testing.T) {
			var samples [2][]LinkStats
			rigs := [2]*feedRig{
				inboxRig(t, NewDropTail(row.cap), rate, 0, 0, 1, row.access),
				pipeFedRig(t, NewDropTail(row.cap), rate, 0, 0, 1, row.access),
			}
			for i, r := range rigs {
				row.script(r)
				r.eng.Run()
				samples[i] = []LinkStats{r.link.ledger()}
			}
			sameRun(t, row.name, rigs[0], rigs[1], samples[0], samples[1])
			if len(rigs[0].got) != len(row.want) {
				t.Fatalf("delivered %v, want %v (in units of tx)", rigs[0].got, row.want)
			}
			for seq, at := range row.want {
				if got, ok := rigs[0].got[seq]; !ok || got != at*tx {
					t.Fatalf("packet %d delivered at %v tx (present %v), want %v tx", seq, got/tx, ok, at)
				}
			}
		})
	}
}

// TestLinkEventBudget holds the link to its event contract with counts that
// are deterministic on any machine: one engine event per packet-hop.
func TestLinkEventBudget(t *testing.T) {
	t.Parallel()
	const rate = 1500 * 1000
	tx := 1500.0 / rate

	// feed posts n packets, one injector event each, gap seconds apart.
	feed := func(eng *sim.Engine, n int, gap float64, send func(*Packet)) {
		left := n
		var step func()
		step = func() {
			send(&Packet{Size: 1500})
			if left--; left > 0 {
				eng.Post(gap, step)
			}
		}
		eng.Post(0, step)
	}

	t.Run("chain", func(t *testing.T) {
		// Three links, delay >= one serialization, fed at line rate: each
		// link's pipe delivery also completes what finished behind it.
		const n = 1000
		eng := sim.NewEngine()
		topo := NewTopology(eng)
		nodes := []string{"A", "B", "C", "D"}
		route := []HopSpec{}
		for i := 0; i < 3; i++ {
			name := nodes[i] + nodes[i+1]
			topo.AddLink(name, nodes[i], nodes[i+1], NewDropTail(-1), rate, 2*tx, 0, nil)
			route = append(route, LinkHop(name))
		}
		got := 0
		topo.AddFlow(0, route, []HopSpec{DelayHop(0)}, sim.NewSeeds(1), func(*Packet) { got++ }, nil)
		feed(eng, n, tx, topo.SendData)
		eng.Run()
		hops := int64(0)
		for _, s := range topo.Stats() {
			hops += s.Delivered
		}
		if got != n || hops != 3*n {
			t.Fatalf("delivered %d packets over %d hops, want %d over %d", got, hops, n, 3*n)
		}
		if link := int64(eng.Processed()) - n; link > hops {
			t.Fatalf("%d link events for %d packet-hops (%.2f per hop), want at most one per hop", link, hops, float64(link)/float64(hops))
		}
	})

	t.Run("idle arrivals", func(t *testing.T) {
		// Every packet finds the link idle and nothing else touches it: the
		// wake completes and delivers in one event.
		const n = 200
		eng := sim.NewEngine()
		l := NewLink(eng, NewDropTail(-1), rate, 3*tx, 0, nil)
		got := 0
		l.Sink = func(*Packet) { got++ }
		feed(eng, n, 2*(tx+3*tx), l.Send)
		eng.Run()
		if got != n || eng.Processed() != 2*n {
			t.Fatalf("delivered %d with %d events, want %d with exactly %d (one injector + one link event per packet)", got, eng.Processed(), n, 2*n)
		}
	})

	t.Run("pending", func(t *testing.T) {
		// A packet on the wire is pending work the engine must report, and
		// the wake is the only thing holding it.
		eng := sim.NewEngine()
		l := NewLink(eng, NewDropTail(-1), rate, 3*tx, 0, nil)
		got := 0
		l.Sink = func(*Packet) { got++ }
		l.Send(&Packet{Size: 1500})
		if eng.Pending() != 1 || l.TxBytes() != 1500 || l.pipe.Len() != 0 || l.wakeAt != tx+3*tx {
			t.Fatalf("pending %d, tx %d B, pipe %d, wake at %v; want 1, 1500, 0, %v", eng.Pending(), l.TxBytes(), l.pipe.Len(), l.wakeAt, tx+3*tx)
		}
		if eng.RunUntil(math.Nextafter(tx+3*tx, 0)); eng.Processed() != 0 {
			t.Fatalf("%d events ran before the delivery instant %v", eng.Processed(), tx+3*tx)
		}
		eng.Run()
		if got != 1 || eng.Pending() != 0 || eng.Processed() != 1 || eng.Now() != tx+3*tx {
			t.Fatalf("delivered %d, pending %d, events %d, clock %v; want 1, 0, 1, %v", got, eng.Pending(), eng.Processed(), eng.Now(), tx+3*tx)
		}
	})

	t.Run("access hop", func(t *testing.T) {
		// A DelayHop → link route fed at line rate: the access hop posts into
		// the link's inbox, so the pair costs one engine event per packet (a
		// delivery-event access hop cost two).
		const n = 1000
		eng := sim.NewEngine()
		topo := NewTopology(eng)
		topo.AddLink("L", "A", "B", NewDropTail(-1), rate, 2*tx, 0, nil)
		got := 0
		topo.AddFlow(0, []HopSpec{DelayHop(5 * tx), LinkHop("L")}, []HopSpec{DelayHop(0)}, sim.NewSeeds(1), func(*Packet) { got++ }, nil)
		feed(eng, n, tx, topo.SendData)
		eng.Run()
		if got != n || eng.Processed() != 2*n {
			t.Fatalf("delivered %d with %d events, want %d with exactly %d (one injector + one link event per packet)", got, eng.Processed(), n, 2*n)
		}
	})

	t.Run("dumbbell", func(t *testing.T) {
		// One flow over the dumbbell at a fixed seed, paced past the
		// bottleneck's rate into a shallow queue, with wire loss and ACK loss.
		// Every data packet used to cost one more event — its access hop's
		// delivery — than it does now: pacing, the bottleneck's delivery and
		// the ACK's delivery are what remains.
		const (
			n = 3000
			// The count with each access hop delivering through its own
			// engine event (the access hop a sim.Pipe), same seed.
			pipeFedEvents = 10758
		)
		eng := sim.NewEngine()
		seeds := sim.NewSeeds(42)
		var topo *Topology
		acks := 0
		topo, bottleneck := oneLinkTopo(eng, seeds, NewDropTail(8*1500), rate, 0.01, 0.02, 0.01,
			func(p *Packet) { topo.SendAck(&Packet{Flow: 0, Ack: true, Size: 40, CumAck: p.Seq}) },
			func(*Packet) { acks++ })
		feed(eng, n, 0.8*tx, topo.SendData)
		eng.Run()
		if s := bottleneck.Delivered(); acks == 0 || s == int64(acks) || s == n {
			t.Fatalf("%d data packets, %d delivered, %d ACKs back: want queue drops and ACK losses", n, s, acks)
		}
		if got := eng.Processed(); got != pipeFedEvents-n {
			t.Fatalf("%d events, want exactly %d: the pipe-fed count %d less one per data packet", got, pipeFedEvents-n, pipeFedEvents)
		}
	})

	t.Run("inbox capacity", func(t *testing.T) {
		// A link that never idles never drains its inbox to empty, so the
		// admitted prefix must be compacted away rather than grow: a million
		// arrivals, about 22 of them pending at any time, in a slice that stays
		// within four times the most ever pending.
		const n = 1_000_000
		eng := sim.NewEngine()
		pool := &PacketPool{}
		l := NewLink(eng, NewDropTail(4*1500), rate, 0, 0, nil)
		l.Pool, l.Sink = pool, pool.Put
		maxCap, maxPending := 0, 0
		feed(eng, n, 0.9*tx, func(p *Packet) {
			q := pool.Get()
			q.Size = p.Size
			l.SendAt(q, eng.Now()+20*tx)
			maxCap, maxPending = max(maxCap, cap(l.inbox)), max(maxPending, len(l.inbox)-l.ibHead)
		})
		eng.Run()
		if l.Queue.Dropped() == 0 || l.Delivered()+l.Queue.Dropped() != n {
			t.Fatalf("%d delivered, %d dropped of %d: want an overloaded link that accounts for every arrival", l.Delivered(), l.Queue.Dropped(), n)
		}
		if maxCap > 4*maxPending || maxPending > 24 {
			t.Fatalf("inbox capacity reached %d for at most %d pending arrivals", maxCap, maxPending)
		}
	})
}
