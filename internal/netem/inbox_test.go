package netem

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pcc/internal/sim"
)

// feedRig is "n access hops feeding one link", built one of two ways: through
// a Topology, where each access hop posts into the link's inbox, or as the
// reference below, where a sim.Pipe per access hop delivers into Link.Send —
// the event-driven access path the inbox replaced, kept here and only here.
type feedRig struct {
	eng       *sim.Engine
	link      *Link
	send      func(f int, p *Packet) // offer p to access hop f now
	direct    func(p *Packet)        // offer p to the link itself now
	setAccess func(f int, d float64) // change access hop f's delay
	got       map[int64]float64      // delivery instant by packet Seq
	dup       func(seq int64)        // reports a second delivery
	routes    []*Route               // inbox rig only
}

func (r *feedRig) record(p *Packet) {
	if _, seen := r.got[p.Seq]; seen {
		r.dup(p.Seq)
	}
	r.got[p.Seq] = r.eng.Now()
}

func inboxRig(t *testing.T, q Queue, rate, delay, loss float64, seed int64, access []float64) *feedRig {
	t.Helper()
	eng := sim.NewEngine()
	topo := NewTopology(eng)
	r := &feedRig{eng: eng, got: map[int64]float64{}, dup: func(s int64) { t.Errorf("packet %d delivered twice", s) }}
	r.link = topo.AddLink("L", "A", "B", q, rate, delay, loss, rand.New(rand.NewSource(seed)))
	seeds := sim.NewSeeds(seed)
	for f, d := range access {
		fwd, _ := topo.AddFlow(f, []HopSpec{DelayHop(d), LinkHop("L")}, []HopSpec{DelayHop(0)}, seeds, r.record, nil)
		if h := fwd.hops[0]; h.feed != r.link || h.pipe != nil {
			t.Fatalf("access hop %d: feed %p pipe %v; want the link's feed and no pipe", f, h.feed, h.pipe)
		}
		r.routes = append(r.routes, fwd)
	}
	// Packets offered to the link itself ride a one-hop route: the hop a
	// packet carries is the link exit's only way on to the sink.
	direct := len(access)
	topo.AddFlow(direct, []HopSpec{LinkHop("L")}, []HopSpec{DelayHop(0)}, seeds, r.record, nil)
	r.send = func(f int, p *Packet) { p.Flow = f; topo.SendData(p) }
	r.direct = func(p *Packet) { p.Flow = direct; topo.SendData(p) }
	r.setAccess = func(f int, d float64) { r.routes[f].SetDelay(0, d) }
	return r
}

func pipeFedRig(t *testing.T, q Queue, rate, delay, loss float64, seed int64, access []float64) *feedRig {
	eng := sim.NewEngine()
	r := &feedRig{eng: eng, got: map[int64]float64{}, dup: func(s int64) { t.Errorf("reference: packet %d delivered twice", s) }}
	l := NewLink(eng, q, rate, delay, loss, rand.New(rand.NewSource(seed)))
	l.Sink = r.record
	r.link = l
	cur := append([]float64(nil), access...)
	pipes := make([]*sim.Pipe, len(access))
	for f := range pipes {
		pipes[f] = eng.NewPipe(func(a any) { l.Send(a.(*Packet)) })
	}
	r.send = func(f int, p *Packet) { p.Flow = f; pipes[f].Post(cur[f], p) }
	r.direct = l.Send
	r.setAccess = func(f int, d float64) { cur[f] = d }
	return r
}

const opAccess = opLoss + 1

// feedScript extends linkScript's schedule to several access hops: each
// arrival is offered at a random hop, and access-delay steps — shrinking as
// well as growing, so packets overtake — join the link mutations. The link's
// own delay only grows here: after a shrink, a completion overtaking the
// propagation train either rides the wake or falls back to an engine event
// that escapes a later SetDown flush (see SetDown), and which one depends on
// when wakes were armed — the very thing the inbox changes. The lazy
// serializer's differential test covers link-delay shrinks.
func feedScript(rng *rand.Rand, rate float64, delays, access []float64) []linkOp {
	ops := linkScript(rng, rate, delays)
	var steps []int
	for i := range ops {
		switch ops[i].kind {
		case opSend:
			ops[i].val = float64(rng.Intn(len(access)))
		case opDelay:
			steps = append(steps, i)
		}
	}
	slices.SortFunc(steps, func(a, b int) int { return cmp.Compare(ops[a].at, ops[b].at) })
	for k := 1; k < len(steps); k++ {
		ops[steps[k]].val = max(ops[steps[k]].val, ops[steps[k-1]].val)
	}
	end := ops[599].at
	for i := 0; i < 20; i++ {
		f := rng.Intn(len(access))
		ops = append(ops, linkOp{at: rng.Float64() * end, kind: opAccess, size: f, val: access[f] * (0.1 + 1.4*rng.Float64())})
	}
	return ops
}

// playFeed runs a script on one rig and returns the ledger sampled at every
// mutation and at the end; deliveries land in r.got. onMutate, when set, runs
// just before each mutation.
func playFeed(r *feedRig, ops []linkOp, onMutate func(linkOp)) []LinkStats {
	var samples []LinkStats
	for i, op := range ops {
		seq, op := int64(i), op
		r.eng.At(op.at, func() {
			if op.kind == opSend {
				r.send(int(op.val), &Packet{Seq: seq, Size: op.size})
				return
			}
			if onMutate != nil {
				onMutate(op)
			}
			l := r.link
			switch op.kind {
			case opDown:
				l.SetDown(true)
			case opUp:
				l.SetDown(false)
			case opRate:
				l.SetRate(op.val)
			case opDelay:
				l.SetDelay(op.val)
			case opLoss:
				l.SetLossRate(op.val)
			case opAccess:
				r.setAccess(op.size, op.val)
			}
			samples = append(samples, l.ledger())
		})
	}
	r.eng.Run()
	return append(samples, r.link.ledger())
}

// sameRun fails unless both rigs delivered the same packets at the same
// instants and showed the same conserved ledger at every sample.
func sameRun(t *testing.T, name string, in, ref *feedRig, sIn, sRef []LinkStats) {
	t.Helper()
	if len(in.got) != len(ref.got) {
		t.Fatalf("%s: inbox delivered %d packets, reference %d", name, len(in.got), len(ref.got))
	}
	for seq, at := range ref.got {
		if got, ok := in.got[seq]; !ok || got != at {
			t.Fatalf("%s: packet %d delivered at %v (present %v), reference at %v", name, seq, got, ok, at)
		}
	}
	if len(sIn) != len(sRef) {
		t.Fatalf("%s: %d ledger samples, reference %d", name, len(sIn), len(sRef))
	}
	for i := range sRef {
		if sIn[i] != sRef[i] {
			t.Fatalf("%s: ledger sample %d/%d:\n inbox %+v\n ref   %+v", name, i, len(sRef), sIn[i], sRef[i])
		}
		if !sIn[i].Conserved() {
			t.Fatalf("%s: ledger sample %d not conserved: %+v", name, i, sIn[i])
		}
	}
}

// TestInboxMatchesPipeFedReference is the differential test behind the
// inbox: the same seeded arrivals and mutations, offered through 1, 2 or 8
// access hops, reach the sink at the same instants with the same drops and
// the same conserved ledger at every mutation, whether the hops post into the
// link's inbox or deliver into Send through their own pipes. It crosses three
// queue kinds, three link delays, and equal and unequal access delays (one of
// them zero in the 8-hop row).
func TestInboxMatchesPipeFedReference(t *testing.T) {
	t.Parallel()
	const rate = 1500 * 100 // 10 ms per 1500 B
	tx := 1500.0 / rate
	delays := []float64{0, tx / 2, 50 * tx}
	queues := []struct {
		name string
		mk   func() Queue
	}{
		{"droptail", func() Queue { return NewDropTail(4 * 1500) }},
		{"codel", func() Queue { return NewCoDel(30 * 1500) }},
		{"fqcodel", func() Queue { return NewFQCoDel(10 * 1500) }},
	}
	feeds := []struct {
		name   string
		access []float64
	}{
		{"1", []float64{20 * tx}},
		{"2-equal", []float64{20 * tx, 20 * tx}},
		{"2-unequal", []float64{3 * tx, 40 * tx}},
		{"8-equal", []float64{8 * tx, 8 * tx, 8 * tx, 8 * tx, 8 * tx, 8 * tx, 8 * tx, 8 * tx}},
		{"8-unequal", []float64{0, tx / 3, 2 * tx, 5 * tx, 11 * tx, 17 * tx, 30 * tx, 60 * tx}},
	}
	var pendingMutations, overtakes, faultDrops int
	for qi, q := range queues {
		queueDrops := 0
		for di, delay := range delays {
			for _, fd := range feeds {
				seed := int64(qi*100+di*10+len(fd.access)) + 1
				name := fmt.Sprintf("%s/delay%d/%s", q.name, di, fd.name)
				ops := feedScript(rand.New(rand.NewSource(seed)), rate, delays, fd.access)

				in := inboxRig(t, q.mk(), rate, delay, 0.02, seed, fd.access)
				sIn := playFeed(in, ops, func(op linkOp) {
					if in.link.ibHead < len(in.link.inbox) {
						pendingMutations++
					}
				})
				ref := pipeFedRig(t, q.mk(), rate, delay, 0.02, seed, fd.access)
				sRef := playFeed(ref, ops, nil)
				sameRun(t, name, in, ref, sIn, sRef)

				last := sRef[len(sRef)-1]
				if last.WireLost == 0 {
					t.Fatalf("%s: script too tame to mean anything: %+v", name, last)
				}
				queueDrops += int(last.QueueDropped)
				faultDrops += int(last.FaultDropped)
				if in.eng.Processed() >= ref.eng.Processed() {
					t.Fatalf("%s: inbox ran %d events, reference %d", name, in.eng.Processed(), ref.eng.Processed())
				}
				// Overtaking within one access hop only follows a delay shrink.
				lastAt := make([]float64, len(fd.access))
				for seq, op := range ops {
					if at, ok := ref.got[int64(seq)]; ok && op.kind == opSend {
						if f := int(op.val); at < lastAt[f] {
							overtakes++
						} else {
							lastAt[f] = at
						}
					}
				}
			}
		}
		if queueDrops == 0 {
			t.Fatalf("%s: no queue drops in any row", q.name)
		}
	}
	if pendingMutations == 0 || overtakes == 0 || faultDrops == 0 {
		t.Fatalf("%d mutations landed with arrivals pending, %d deliveries overtook, %d packets died in outages; want all three",
			pendingMutations, overtakes, faultDrops)
	}

	// An idle link's inbox head is covered for its delivery under the
	// parameters of the moment; a faster rate or a shorter delay set before it
	// arrives must move the wake earlier (a late wake would find the delivery
	// in its past).
	d := 20 * tx
	for _, step := range []struct {
		name      string
		set       func(*Link)
		rate, lag float64
	}{
		{"rate-up-moves-wake", func(l *Link) { l.SetRate(2 * rate) }, 2 * rate, tx},
		{"delay-down-moves-wake", func(l *Link) { l.SetDelay(tx / 4) }, rate, tx / 4},
	} {
		t.Run(step.name, func(t *testing.T) {
			want := d + 1500.0/step.rate + step.lag
			run := func(r *feedRig) {
				r.eng.At(0, func() { r.send(0, &Packet{Seq: 1, Size: 1500}) })
				r.eng.At(d/2, func() {
					step.set(r.link)
					if l := r.link; l.inbox != nil && l.wakeAt != want {
						t.Errorf("wake at %v after the step, want %v", l.wakeAt, want)
					}
				})
				r.eng.Run()
			}
			in := inboxRig(t, NewDropTail(-1), rate, tx, 0, 1, []float64{d})
			ref := pipeFedRig(t, NewDropTail(-1), rate, tx, 0, 1, []float64{d})
			run(in)
			run(ref)
			if in.got[1] != ref.got[1] || ref.got[1] != want {
				t.Fatalf("delivered at %v, reference %v; want %v", in.got[1], ref.got[1], want)
			}
		})
	}

	t.Run("down-with-arrivals-pending", func(t *testing.T) {
		// Arrivals due while the link is down queue behind it at their own
		// instants, whenever they are admitted, and leave in order at the heal.
		// Arrivals at 5, 10.5, 8, 13.5, 11, 16.5, 14, 19.5, 17, 22.5 tx by
		// packet; the outage [12.25, 15.25) tx catches packet 1 propagating,
		// packet 4 on the wire and two more arriving, and four are still in
		// the access hops when it heals.
		pending := map[bool]int{}
		run := func(r *feedRig) []LinkStats {
			var s []LinkStats
			for i := int64(0); i < 10; i++ {
				r.eng.At(float64(i)*1.5*tx, func() { r.send(int(i%2), &Packet{Seq: i, Size: 1500}) })
			}
			mutate := func(down bool) {
				if l := r.link; l.inbox != nil && l.ibHead < len(l.inbox) {
					pending[down]++
				}
				r.link.SetDown(down)
				s = append(s, r.link.ledger())
			}
			r.eng.At(12.25*tx, func() { mutate(true) })
			r.eng.At(15.25*tx, func() { mutate(false) })
			r.eng.Run()
			return append(s, r.link.ledger())
		}
		access := []float64{5 * tx, 9 * tx}
		in := inboxRig(t, NewDropTail(-1), rate, tx, 0, 1, access)
		ref := pipeFedRig(t, NewDropTail(-1), rate, tx, 0, 1, access)
		sameRun(t, "down-with-arrivals-pending", in, ref, run(in), run(ref))
		if len(in.got) != 8 || in.link.FaultDropped() != 2 || pending[true] != 1 || pending[false] != 1 {
			t.Fatalf("delivered %d, fault ledger %d, arrivals pending at down/up %d/%d; want 8, 2, 1/1",
				len(in.got), in.link.FaultDropped(), pending[true], pending[false])
		}
	})
}
