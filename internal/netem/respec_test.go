package netem

import (
	"testing"

	"pcc/internal/sim"
)

// lossyRunOutcome drives a fixed burst pattern through a lossy 3-hop
// topology (fresh or re-specced by the caller) and returns the per-link
// stats plus total deliveries — enough state to detect any divergence in
// queueing, serialization, or the loss RNG streams.
func lossyRunOutcome(eng *sim.Engine, topo *Topology, delivered *int) ([]LinkStats, int) {
	for burst := 0; burst < 40; burst++ {
		at := float64(burst) * 0.004
		eng.At(at, func() {
			for i := 0; i < 30; i++ {
				topo.SendData(&Packet{Flow: 0, Size: 1500})
			}
		})
	}
	eng.Run()
	return topo.Stats(), *delivered
}

// TestRespecReproducesFreshTopology is the netem-level arena guarantee:
// engine reset + link/queue/flow respec must reproduce a fresh build's
// behaviour exactly — including the wire-loss draws — across repeated
// trials and changed parameters.
func TestRespecReproducesFreshTopology(t *testing.T) {
	t.Parallel()
	build := func() (*sim.Engine, *Topology, *int) {
		eng := sim.NewEngine()
		seeds := sim.NewSeeds(5)
		topo, delivered := threeHopTopo(t, eng, seeds, []int{10 * 1500, -1, -1}, []float64{0, 0.08, 0.02})
		return eng, topo, delivered
	}
	eng, topo, delivered := build()
	wantStats, wantDel := lossyRunOutcome(eng, topo, delivered)

	// Re-spec the same topology in place, twice, expecting identical runs.
	pool := topo.Pool
	for trial := 0; trial < 2; trial++ {
		eng.Reset(func(a any) {
			if p, ok := a.(*Packet); ok {
				pool.Put(p)
			}
		})
		seeds := sim.NewSeeds(5)
		// Same draw order as threeHopTopo: three link streams, then the
		// flow stream.
		for i, name := range []string{"l1", "l2", "l3"} {
			l := topo.LinkByName(name)
			l.Queue.(*DropTail).Reset([]int{10 * 1500, -1, -1}[i], pool)
			l.Reset(Mbps(100), 0.001, []float64{0, 0.08, 0.02}[i], seeds.Next())
		}
		*delivered = 0
		topo.RespecFlow(0,
			[]HopSpec{DelayHop(0.002), LinkHop("l1"), LinkHop("l2"), LinkHop("l3")},
			[]HopSpec{DelayHop(0.005)},
			seeds,
			func(p *Packet) { *delivered++; pool.Put(p) },
			nil)
		gotStats, gotDel := lossyRunOutcome(eng, topo, delivered)
		if gotDel != wantDel {
			t.Fatalf("trial %d: delivered %d, want %d", trial, gotDel, wantDel)
		}
		for i := range wantStats {
			if gotStats[i] != wantStats[i] {
				t.Fatalf("trial %d link %s: stats %+v, want %+v", trial, wantStats[i].Name, gotStats[i], wantStats[i])
			}
		}
		if wantStats[1].WireLost == 0 {
			t.Fatal("middle hop lost nothing; loss stream not exercised")
		}
	}
}

// TestRespecFlowRebuildsOnShapeChange verifies the teardown path: changing
// a flow's route shape under RespecFlow re-routes packets correctly and
// leaves no stale route hop behind.
func TestRespecFlowRebuildsOnShapeChange(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(3)
	topo := NewTopology(eng)
	pool := &PacketPool{}
	topo.UsePool(pool)
	topo.AddLink("a", "A", "B", NewDropTail(-1), Mbps(100), 0.001, 0, seeds.NextRand())
	topo.AddLink("b", "B", "C", NewDropTail(-1), Mbps(100), 0.001, 0, seeds.NextRand())

	got := 0
	sink := func(p *Packet) { got++; pool.Put(p) }
	topo.AddFlow(0, []HopSpec{LinkHop("a"), LinkHop("b")}, []HopSpec{DelayHop(0.001)}, seeds, sink, nil)
	eng.At(0, func() { topo.SendData(&Packet{Flow: 0, Size: 1500}) })
	eng.Run()
	if got != 1 {
		t.Fatalf("2-hop route delivered %d, want 1", got)
	}

	eng.Reset(nil)
	seeds.Reset(3)
	// New shape: single link hop. The old "b" routing entry must be gone.
	topo.RespecFlow(0, []HopSpec{LinkHop("a")}, []HopSpec{DelayHop(0.001)}, seeds, sink, nil)
	got = 0
	eng.At(0, func() { topo.SendData(&Packet{Flow: 0, Size: 1500}) })
	eng.Run()
	if got != 1 {
		t.Fatalf("re-specced 1-hop route delivered %d, want 1", got)
	}
	if fwd, _ := topo.FlowRoutes(0); len(fwd.hops) != 1 {
		t.Fatalf("re-specced route has %d hops, want 1", len(fwd.hops))
	}
	// The dropped second hop must be gone from link b: inject onto b through
	// a one-hop probe route and confirm b's exit ends that route (the probe
	// has no sink, so the packet is recycled) rather than forwarding the
	// packet along flow 0's old route or panicking.
	topo.AddFlow(1, []HopSpec{LinkHop("b")}, []HopSpec{DelayHop(0)}, seeds, nil, nil)
	before := pool.Size()
	topo.SendData(&Packet{Flow: 1, Size: 1500})
	eng.Run()
	if pool.Size() != before+1 || got != 1 {
		t.Fatalf("stale route entry still consumes packets from link b")
	}
}

// TestQueueResets drives Reset through the Queue interface for every kind
// NewQueue builds: queued packets drain into the new pool, drop counts
// zero, the capacity is replaced, and dequeue-time drops recycle into the
// new pool. A fair queue's scheduler list empties; its child from before
// the reset (flow 0) and one first created after it (flow 2) both take the
// new per-flow capacity and, for fq_codel, the new pool.
func TestQueueResets(t *testing.T) {
	t.Parallel()
	for _, kind := range []string{"droptail", "codel", "fq", "fqcodel"} {
		q, err := NewQueue(kind, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			q.Enqueue(&Packet{Flow: 0, Size: 1500}, 0) // the third is over the cap
		}
		// Wired after the enqueues, so a fair queue's flow-0 child exists
		// and must take the pool too.
		old := &PacketPool{}
		q.usePool(old)
		if fq, ok := q.(*FQ); ok && kind == "fqcodel" && fq.flows[0].q.(*CoDel).Pool != old {
			t.Fatalf("%s: usePool did not reach the flow-0 child", kind)
		}
		queued := q.Len()
		if queued != 2 || q.Dropped() != 1 {
			t.Fatalf("%s: %d queued and %d dropped before Reset, want 2 and 1", kind, queued, q.Dropped())
		}

		pool := &PacketPool{}
		q.Reset(60000, pool)
		if q.Len() != 0 || q.Bytes() != 0 || q.Dropped() != 0 || q.DroppedBytes() != 0 {
			t.Fatalf("%s: Reset left state: len %d bytes %d drops %d", kind, q.Len(), q.Bytes(), q.Dropped())
		}
		if pool.Size() != queued || old.Size() != 0 {
			t.Fatalf("%s: Reset recycled %d packets into the new pool and %d into the old, want %d and 0",
				kind, pool.Size(), old.Size(), queued)
		}
		if fq, ok := q.(*FQ); ok {
			if len(fq.active) != 0 {
				t.Fatalf("%s: %d flows left on the scheduler list after Reset", kind, len(fq.active))
			}
			checkChild(t, kind, "child from before Reset", fq.flows[0].q, pool)
		}
		// The new capacity holds 40 packets of a flow, and not 41.
		for i := 0; i < 40; i++ {
			if !q.Enqueue(&Packet{Flow: 2, Size: 1500}, 0) {
				t.Fatalf("%s: packet %d rejected under the new 60000-byte capacity", kind, i)
			}
		}
		if q.Enqueue(&Packet{Flow: 2, Size: 1500}, 0) {
			t.Fatalf("%s: 41st packet admitted over the new capacity", kind)
		}
		// A second dequeue 1.2 s after enqueue is past CoDel's interval: the
		// CoDel kinds drop one packet there, into the new pool.
		q.Dequeue(1)
		q.Dequeue(1.2)
		wantDrops := 0
		if kind == "codel" || kind == "fqcodel" {
			wantDrops = 1
		}
		if got := pool.Size() - queued; got != wantDrops || old.Size() != 0 {
			t.Fatalf("%s: %d dequeue-time drops in the new pool, %d in the old; want %d and 0", kind, got, old.Size(), wantDrops)
		}
		switch q := q.(type) {
		case *CoDel:
			if q.CapBytes != 60000 || q.Pool != pool {
				t.Fatalf("codel: CapBytes %d, pool reset %v", q.CapBytes, q.Pool == pool)
			}
		case *FQ:
			if q.PerFlowBytes != 60000 || q.Pool != pool {
				t.Fatalf("%s: PerFlowBytes %d, pool reset %v", kind, q.PerFlowBytes, q.Pool == pool)
			}
			checkChild(t, kind, "child created after Reset", q.flows[2].q, pool)
		}
	}
}

// checkChild asserts that a fair queue's child has TestQueueResets' new
// capacity, 60000 bytes, and is a CoDel child holding the new pool exactly
// when the fair queue is fq_codel.
func checkChild(t *testing.T, kind, which string, child Queue, pool *PacketPool) {
	t.Helper()
	switch c := child.(type) {
	case *DropTail:
		if kind != "fq" || c.CapBytes != 60000 {
			t.Fatalf("%s: %s is drop-tail with CapBytes %d, want an fq child with 60000", kind, which, c.CapBytes)
		}
	case *CoDel:
		if kind != "fqcodel" || c.CapBytes != 60000 || c.Pool != pool {
			t.Fatalf("%s: %s is CoDel with CapBytes %d, new pool %v; want an fqcodel child with 60000 and the new pool",
				kind, which, c.CapBytes, c.Pool == pool)
		}
	default:
		t.Fatalf("%s: %s is a %T", kind, which, child)
	}
}

// TestLinkResetReplaysLossStream pins that Link.Reset's reseed reproduces a
// fresh generator's draw sequence even after the old stream materialized.
func TestLinkResetReplaysLossStream(t *testing.T) {
	t.Parallel()
	run := func(l *Link, eng *sim.Engine) (lost int64) {
		for i := 0; i < 200; i++ {
			l.Send(&Packet{Size: 1500})
		}
		eng.Run()
		return l.WireLost()
	}
	seeds := sim.NewSeeds(21)
	engA := sim.NewEngine()
	fresh := NewLink(engA, NewDropTail(-1), Mbps(100), 0, 0.1, seeds.NextRand())
	fresh.Sink = func(p *Packet) {}
	wantLost := run(fresh, engA)

	engB := sim.NewEngine()
	reused := NewLink(engB, NewDropTail(-1), Mbps(100), 0, 0.2, sim.NewSeeds(99).NextRand())
	reused.Sink = func(p *Packet) {}
	run(reused, engB) // materialize and advance the old stream
	engB.Reset(nil)
	seeds.Reset(21)
	reused.Queue.(*DropTail).Reset(-1, nil)
	reused.Reset(Mbps(100), 0, 0.1, seeds.Next())
	if got := run(reused, engB); got != wantLost {
		t.Fatalf("re-specced link lost %d, fresh lost %d", got, wantLost)
	}
	if reused.OfferedBytes() != fresh.OfferedBytes() || reused.DeliveredBytes() != fresh.DeliveredBytes() {
		t.Fatal("byte ledgers diverged after respec")
	}
}

// TestLinkResetMidSerialization resets a link whose wire head and wake rider
// sit on no engine event, where Engine.Reset's reclaim cannot see them:
// Link.Reset must hand both back to the pool, or identical warm reruns would
// allocate.
func TestLinkResetMidSerialization(t *testing.T) {
	eng := sim.NewEngine()
	pool := &PacketPool{}
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.010, 0, nil)
	link.Pool = pool
	delivered := 0
	link.Sink = func(p *Packet) { delivered++; pool.Put(p) }
	send := func() {
		p := pool.Get()
		p.Size = 1500
		link.Send(p)
	}
	sendTwo := func() { send(); send() }
	reclaim := func(a any) {
		if p, ok := a.(*Packet); ok {
			pool.Put(p)
		}
	}
	trial := func() {
		eng.Reset(reclaim)
		link.Queue.(*DropTail).Reset(-1, pool)
		link.Reset(1500*1000, 0.010, 0, 1)
		eng.Post(0, send)
		eng.Post(0.0015, sendTwo)
		// Packet 0 rides the wake, packet 1 is on the wire, packet 2 queued.
		eng.RunUntil(0.002)
	}
	trial()
	if link.carry == nil || link.tx == nil || link.Queue.Len() != 1 || delivered != 0 {
		t.Fatalf("setup: carry %v, tx %v, queued %d, delivered %d", link.carry, link.tx, link.Queue.Len(), delivered)
	}
	trial()
	pool.missed = 0
	if allocs := testing.AllocsPerRun(20, trial); allocs != 0 {
		t.Fatalf("warm rerun allocates %v per trial, want 0", allocs)
	}
	if pool.missed != 0 {
		t.Fatalf("warm reruns missed the pool %d times: Link.Reset leaked the wire head or the wake's rider", pool.missed)
	}

	t.Run("inbox", func(t *testing.T) {
		// Arrivals an access hop posted ahead of time wait in the inbox, on no
		// engine event either: a reset with some pending must recycle them and
		// leave nothing behind for the next trial to admit.
		const at0, gap = 0.004, 0.0015
		eng := sim.NewEngine()
		pool := &PacketPool{}
		link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.010, 0, nil)
		link.Pool = pool
		delivered := 0
		link.Sink = func(p *Packet) { delivered++; pool.Put(p) }
		reclaim := func(a any) {
			if p, ok := a.(*Packet); ok {
				pool.Put(p)
			}
		}
		post := func() {
			for i := 0; i < 3; i++ {
				p := pool.Get()
				p.Size = 1500
				link.SendAt(p, eng.Now()+at0+float64(i)*gap)
			}
		}
		var first LinkStats
		trials, differ := 0, 0
		trial := func() {
			eng.Reset(reclaim)
			link.Queue.(*DropTail).Reset(-1, pool)
			link.Reset(1500*1000, 0.010, 0, 1)
			eng.Post(0, post)
			eng.Post(0.003, post)
			// The ledger at 6.5 ms admits the arrivals at 4 and 5.5 ms — one
			// now rides the wake, one the pipe — and four (7, 7, 8.5, 10 ms)
			// stay pending.
			eng.RunUntil(0.0065)
			if s := link.ledger(); trials == 0 {
				first = s
			} else if s != first {
				differ++
			}
			trials++
		}
		trial()
		if pending := len(link.inbox) - link.ibHead; pending != 4 || link.carry == nil || link.pipe.Len() != 1 {
			t.Fatalf("setup: %d arrivals pending, carry %v, pipe %d; want 4, one riding the wake, one on the pipe", pending, link.carry, link.pipe.Len())
		}
		trial()
		pool.missed = 0
		if allocs := testing.AllocsPerRun(20, trial); allocs != 0 {
			t.Fatalf("warm rerun allocates %v per trial, want 0", allocs)
		}
		if pool.missed != 0 {
			t.Fatalf("warm reruns missed the pool %d times: Link.Reset leaked the inbox", pool.missed)
		}
		if differ != 0 || first.OfferedBytes != 2*1500 || !first.Conserved() {
			t.Fatalf("%d of %d reruns differ from the first trial's ledger %+v", differ, trials, first)
		}
		if delivered != 0 {
			t.Fatalf("%d packets reached the sink; a trial stops before the first delivery", delivered)
		}
	})
}
