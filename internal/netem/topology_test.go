package netem

import (
	"sort"
	"strings"
	"testing"

	"pcc/internal/sim"
)

// threeHopTopo builds A→B→C→D with the given per-link queue capacities and
// wire-loss rates, one registered flow (id 0) routed over all three links,
// and returns the topology plus a delivery counter.
func threeHopTopo(t *testing.T, eng *sim.Engine, seeds *sim.Seeds, bufBytes []int, loss []float64) (*Topology, *int) {
	t.Helper()
	topo := NewTopology(eng)
	pool := &PacketPool{}
	topo.UsePool(pool)
	names := []string{"l1", "l2", "l3"}
	nodes := []string{"A", "B", "C", "D"}
	for i, n := range names {
		topo.AddLink(n, nodes[i], nodes[i+1], NewDropTail(bufBytes[i]), Mbps(100), 0.001, loss[i], seeds.NextRand())
	}
	delivered := 0
	topo.AddFlow(0,
		[]HopSpec{DelayHop(0.002), LinkHop("l1"), LinkHop("l2"), LinkHop("l3")},
		[]HopSpec{DelayHop(0.005)},
		seeds,
		func(p *Packet) { delivered++; pool.Put(p) },
		nil)
	return topo, &delivered
}

// oneLinkTopo builds the graph exp.NewRunner builds for a dumbbell — one
// BottleneckLink from "senders" to "receivers" — and routes flow 0 over it:
// out through an access delay hop of delay, back over one delay hop of
// delay with Bernoulli loss revLoss.
func oneLinkTopo(eng *sim.Engine, seeds *sim.Seeds, q Queue, rate, loss, delay, revLoss float64, dataSink, ackSink func(*Packet)) (*Topology, *Link) {
	topo := NewTopology(eng)
	l := topo.AddLink(BottleneckLink, "senders", "receivers", q, rate, 0, loss, seeds.NextRand())
	topo.AddFlow(0, []HopSpec{DelayHop(delay), LinkHop(BottleneckLink)}, []HopSpec{LossyDelayHop(delay, revLoss)},
		seeds, dataSink, ackSink)
	return topo, l
}

func TestTopologyMultiHopTiming(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	topo := NewTopology(eng)
	topo.AddLink("l1", "A", "B", NewDropTail(-1), 1500*100, 0.010, 0, nil)
	topo.AddLink("l2", "B", "C", NewDropTail(-1), 1500*100, 0.020, 0, nil)
	var arrival float64
	topo.AddFlow(0,
		[]HopSpec{DelayHop(0.003), LinkHop("l1"), LinkHop("l2")},
		[]HopSpec{DelayHop(0.001)},
		seeds,
		func(p *Packet) { arrival = eng.Now() },
		nil)
	eng.At(0, func() { topo.SendData(pkt(0, 0, 1500)) })
	eng.Run()
	// access 3 ms + 2×(serialization 10 ms) + 10 ms + 20 ms propagation.
	want := 0.003 + 0.010 + 0.010 + 0.010 + 0.020
	if arrival < want-1e-9 || arrival > want+1e-9 {
		t.Fatalf("arrival at %v, want %v", arrival, want)
	}
	t.Run("trailing-zero-delay-hop", topoRowTrailingZeroDelay)
}

// topoRowTrailingZeroDelay routes a flow over a link into a trailing
// DelayHop(0), the shape of an ACK's last mile, and moves that hop's delay up,
// back to 0 and up again with packets in flight, so packets entering after
// each shrink overtake the train ahead of them. Every packet must reach the
// sink at the instant it entered the hop plus the delay then in force, in
// (at, seq) order, where seq is the order packets entered the hop.
func topoRowTrailingZeroDelay(t *testing.T) {
	eng := sim.NewEngine()
	topo := NewTopology(eng)
	l := topo.AddLink("l", "A", "B", NewDropTail(-1), Mbps(100), 0.001, 0, nil)
	type delivery struct {
		at  float64
		seq int64
	}
	var want, got []delivery
	fwd, _ := topo.AddFlow(0,
		[]HopSpec{LinkHop("l"), DelayHop(0)},
		[]HopSpec{DelayHop(0)},
		sim.NewSeeds(4),
		func(p *Packet) { got = append(got, delivery{eng.Now(), p.Seq}) },
		nil)
	last := fwd.hops[1]
	exit := l.Sink
	l.Sink = func(p *Packet) {
		want = append(want, delivery{eng.Now() + last.delay, p.Seq})
		exit(p)
	}
	// 500-byte packets serialize in 40 µs, so one every 50 µs never queues.
	for i := 0; i < 400; i++ {
		eng.At(float64(i)*50e-6, func() { topo.SendData(pkt(0, int64(i), 500)) })
	}
	for _, c := range []struct{ at, delay float64 }{{0.005, 0.003}, {0.010, 0}, {0.012, 0.003}, {0.015, 0}} {
		eng.At(c.at, func() { fwd.SetDelay(1, c.delay) })
	}
	eng.Run()

	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != 400 || len(want) != 400 {
		t.Fatalf("%d packets delivered, %d entered the last hop, want 400", len(got), len(want))
	}
	overtaken := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: packet %d at %v, want packet %d at %v", i, got[i].seq, got[i].at, want[i].seq, want[i].at)
		}
		if i > 0 && got[i].seq < got[i-1].seq {
			overtaken++
		}
	}
	if overtaken == 0 {
		t.Fatal("no packet overtook the train: the delay shrinks were too gentle")
	}
}

// TestTopologyPerLinkAccounting drives a bursty flow through a 3-hop route
// with a tiny first-hop buffer and wire loss on the middle hop, and asserts
// conservation at every hop: packets offered = delivered + wire-lost +
// queue-dropped once the network drains.
func TestTopologyPerLinkAccounting(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(7)
	topo, delivered := threeHopTopo(t, eng, seeds,
		[]int{15 * 1500, -1, -1}, []float64{0, 0.05, 0.01})
	const n = 5000
	// Burst 50 packets at a time so the shallow first-hop queue drops some.
	for burst := 0; burst < n/50; burst++ {
		at := float64(burst) * 0.005
		eng.At(at, func() {
			for i := 0; i < 50; i++ {
				topo.SendData(&Packet{Flow: 0, Size: 1500})
			}
		})
	}
	eng.Run()

	stats := topo.Stats()
	if len(stats) != 3 {
		t.Fatalf("Stats() returned %d links, want 3", len(stats))
	}
	offered := int64(n)
	for _, s := range stats {
		got := s.Delivered + s.WireLost + s.QueueDropped
		if got != offered {
			t.Errorf("link %s: delivered(%d)+wire_lost(%d)+queue_dropped(%d) = %d, want offered %d",
				s.Name, s.Delivered, s.WireLost, s.QueueDropped, got, offered)
		}
		// What this hop delivered is exactly what the next hop was offered.
		offered = s.Delivered
	}
	if int64(*delivered) != stats[2].Delivered {
		t.Errorf("receiver saw %d packets, last hop delivered %d", *delivered, stats[2].Delivered)
	}
	if stats[0].QueueDropped == 0 {
		t.Error("shallow first hop never dropped: burst pattern too gentle to exercise accounting")
	}
	if stats[1].WireLost == 0 {
		t.Error("lossy middle hop never lost a packet")
	}
}

// TestTopologySharedLinkAckCompetition is the congested-reverse-path shape
// at the netem layer: two opposing flows where each flow's ACKs traverse
// the other flow's data bottleneck, asserting both traffic kinds are
// counted by the shared link.
func TestTopologySharedLinkAckCompetition(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(3)
	topo := NewTopology(eng)
	pool := &PacketPool{}
	topo.UsePool(pool)
	topo.AddLink("ab", "A", "B", NewDropTail(-1), Mbps(10), 0.005, 0, seeds.NextRand())
	topo.AddLink("ba", "B", "A", NewDropTail(-1), Mbps(10), 0.005, 0, seeds.NextRand())

	acks := map[int]int{}
	mkSinks := func(id int) (func(*Packet), func(*Packet)) {
		return func(p *Packet) { // data arrives: echo an ACK
				pool.Put(p)
				a := pool.Get()
				a.Flow, a.Ack, a.Size = id, true, 40
				topo.SendAck(a)
			}, func(p *Packet) {
				acks[id]++
				pool.Put(p)
			}
	}
	d0, a0 := mkSinks(0)
	topo.AddFlow(0, []HopSpec{LinkHop("ab")}, []HopSpec{LinkHop("ba")}, seeds, d0, a0)
	d1, a1 := mkSinks(1)
	topo.AddFlow(1, []HopSpec{LinkHop("ba")}, []HopSpec{LinkHop("ab")}, seeds, d1, a1)

	const n = 200
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			p0 := pool.Get()
			p0.Flow, p0.Size = 0, 1500
			topo.SendData(p0)
			p1 := pool.Get()
			p1.Flow, p1.Size = 1, 1500
			topo.SendData(p1)
		}
	})
	eng.Run()
	if acks[0] != n || acks[1] != n {
		t.Fatalf("acks = %v, want %d each", acks, n)
	}
	// Each link carried n data packets of one flow and n ACKs of the other.
	for _, s := range topo.Stats() {
		if s.Delivered != 2*n {
			t.Errorf("link %s delivered %d, want %d (data + opposing ACKs)", s.Name, s.Delivered, 2*n)
		}
	}
}

func TestTopologyDelayHopLoss(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(9)
	topo := NewTopology(eng)
	pool := &PacketPool{}
	topo.UsePool(pool)
	topo.AddLink("l", "A", "B", NewDropTail(-1), Mbps(1000), 0, 0, nil)
	got := 0
	topo.AddFlow(0,
		[]HopSpec{LossyDelayHop(0.001, 0.2), LinkHop("l")},
		[]HopSpec{DelayHop(0.001)},
		seeds,
		func(p *Packet) { got++; pool.Put(p) },
		nil)
	const n = 20000
	for i := 0; i < n; i++ {
		eng.At(float64(i)*1e-5, func() {
			p := pool.Get()
			p.Flow, p.Size = 0, 1500
			topo.SendData(p)
		})
	}
	eng.Run()
	rate := 1 - float64(got)/n
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("delay-hop empirical loss %.3f, want ~0.20", rate)
	}
	if pool.Size() == 0 {
		t.Fatal("lost packets were not recycled through the pool")
	}
}

// TestRouteSetLoss covers the runtime loss mutator (the varying-network
// knob for delay hops): loss switched on mid-run drops packets, and the
// mutators reject link hops.
func TestRouteSetLoss(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(5)
	topo := NewTopology(eng)
	pool := &PacketPool{}
	topo.UsePool(pool)
	topo.AddLink("l", "A", "B", NewDropTail(-1), Mbps(1000), 0, 0, nil)
	got := 0
	fwd, _ := topo.AddFlow(0,
		[]HopSpec{DelayHop(0.001), LinkHop("l")},
		[]HopSpec{DelayHop(0.001)},
		seeds,
		func(p *Packet) { got++; pool.Put(p) },
		nil)
	send := func() {
		p := pool.Get()
		p.Flow, p.Size = 0, 1500
		topo.SendData(p)
	}
	eng.At(0, send)
	eng.At(0.01, func() { fwd.SetLoss(0, 1) }) // certain loss from now on
	eng.At(0.02, send)
	eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d packets, want 1 (second one eaten by SetLoss(0, 1))", got)
	}
	mustPanic(t, []string{"SetLoss", "link hop"}, func() { fwd.SetLoss(1, 0.5) })
	mustPanic(t, []string{"SetDelay", "link hop"}, func() { fwd.SetDelay(1, 0.5) })
}

// mustPanic asserts fn panics with a message containing every want string.
func mustPanic(t *testing.T, wants []string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", wants)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		for _, w := range wants {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	fn()
}

func TestTopologyRouteValidation(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	topo := NewTopology(eng)
	topo.AddLink("l1", "A", "B", NewDropTail(-1), Mbps(10), 0, 0, nil)
	topo.AddLink("l2", "B", "C", NewDropTail(-1), Mbps(10), 0, 0, nil)
	topo.AddLink("back", "B", "A", NewDropTail(-1), Mbps(10), 0, 0, nil)

	mustPanic(t, []string{"unknown link", "nope", "7"}, func() {
		topo.AddFlow(7, []HopSpec{LinkHop("nope")}, []HopSpec{DelayHop(0)}, seeds, nil, nil)
	})
	mustPanic(t, []string{"disconnected", "l1"}, func() {
		// l2 ends at C; l1 starts at A.
		topo.AddFlow(8, []HopSpec{LinkHop("l2"), LinkHop("l1")}, []HopSpec{DelayHop(0)}, seeds, nil, nil)
	})
	mustPanic(t, []string{"twice", "l1", "9"}, func() {
		// A loop A→B→A→B revisits l1 in the same direction.
		topo.AddFlow(9, []HopSpec{LinkHop("l1"), LinkHop("back"), LinkHop("l1")}, []HopSpec{DelayHop(0)}, seeds, nil, nil)
	})
	mustPanic(t, []string{"empty route", "10"}, func() {
		topo.AddFlow(10, nil, nil, seeds, nil, nil)
	})
	mustPanic(t, []string{"duplicate link", "l1"}, func() {
		topo.AddLink("l1", "A", "B", NewDropTail(-1), Mbps(10), 0, 0, nil)
	})

	topo.AddFlow(0, []HopSpec{LinkHop("l1"), LinkHop("l2")}, []HopSpec{DelayHop(0)}, seeds, nil, nil)
	mustPanic(t, []string{"duplicate flow", "0"}, func() {
		topo.AddFlow(0, []HopSpec{LinkHop("l1")}, []HopSpec{DelayHop(0)}, seeds, nil, nil)
	})
}

// TestDumbbellPanicsCarryFlowID pins the diagnostic quality of the
// unregistered-flow panics on a dumbbell: the offending id must appear in
// the message.
func TestDumbbellPanicsCarryFlowID(t *testing.T) {
	topo, _ := oneLinkTopo(sim.NewEngine(), sim.NewSeeds(1), NewDropTail(-1), Mbps(100), 0, 0.015, 0, nil, nil)

	mustPanic(t, []string{"SendData", "41"}, func() { topo.SendData(&Packet{Flow: 41}) })
	mustPanic(t, []string{"SendAck", "42"}, func() { topo.SendAck(&Packet{Flow: 42, Ack: true}) })
}

// TestDispatchFallsBackToRouteTable hands packets to an interior link
// directly — no hop.enter stamped them, or a stale stamp names another link —
// and checks the link's exit still continues the flow's route from its table.
func TestDispatchFallsBackToRouteTable(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	topo, delivered := threeHopTopo(t, eng, seeds, []int{-1, -1, -1}, []float64{0, 0, 0})
	fwd, _ := topo.FlowRoutes(0)
	l2 := topo.LinkByName("l2")
	l2.Send(&Packet{Flow: 0, Size: 1500})
	l2.Send(&Packet{Flow: 0, Size: 1500, hop: fwd.hops[1]}) // stamped for l1
	eng.Run()
	if *delivered != 2 {
		t.Fatalf("delivered %d of 2 hand-injected packets", *delivered)
	}
	if got := topo.LinkByName("l3").Delivered(); got != 2 {
		t.Fatalf("l3 forwarded %d, want 2", got)
	}
}
