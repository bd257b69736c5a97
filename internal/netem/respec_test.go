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

// TestQueueResets pins that each queue kind's Reset drains into the pool
// and restores constructor state with the new capacity.
func TestQueueResets(t *testing.T) {
	t.Parallel()
	pool := &PacketPool{}

	dt := NewDropTail(3000)
	dt.Enqueue(&Packet{Size: 1500}, 0)
	dt.Enqueue(&Packet{Size: 1500}, 0)
	dt.Enqueue(&Packet{Size: 1500}, 0) // dropped: over cap
	dt.Reset(6000, pool)
	if dt.Len() != 0 || dt.Bytes() != 0 || dt.Dropped() != 0 || dt.DroppedBytes() != 0 || dt.CapBytes != 6000 {
		t.Fatalf("DropTail.Reset left state: %+v", dt)
	}
	if pool.Size() != 2 {
		t.Fatalf("DropTail.Reset recycled %d packets, want 2", pool.Size())
	}

	cd := NewCoDel(30000)
	cd.Pool = pool
	for i := 0; i < 4; i++ {
		cd.Enqueue(&Packet{Size: 1500}, float64(i)*0.001)
	}
	cd.Reset(60000)
	if cd.Len() != 0 || cd.Dropped() != 0 || cd.CapBytes != 60000 || cd.dropping || cd.firstAbove != 0 {
		t.Fatalf("CoDel.Reset left state: %+v", cd)
	}

	fq := NewFQCoDel(30000)
	fq.Pool = pool
	fq.Enqueue(&Packet{Flow: 0, Size: 1500}, 0)
	fq.Enqueue(&Packet{Flow: 1, Size: 1500}, 0)
	fq.Reset(60000)
	if fq.Len() != 0 || fq.Bytes() != 0 || len(fq.active) != 0 || fq.PerFlowBytes != 60000 {
		t.Fatalf("FQ.Reset left state: %+v", fq)
	}
	if fq.Dropped() != 0 {
		t.Fatalf("FQ.Reset left child drop counts: %d", fq.Dropped())
	}
	// Children are CoDel instances reset with the new cap.
	for _, fl := range fq.flows {
		if fl == nil {
			continue
		}
		if cd, ok := fl.q.(*CoDel); !ok || cd.CapBytes != 60000 {
			t.Fatalf("FQ child not re-specced: %+v", fl.q)
		}
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
