package netem

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pcc/internal/sim"
)

// linkConserved checks the byte conservation identity directly on a Link:
// every byte offered is delivered, wire-lost, queue-dropped, fault-dropped,
// still queued, or on the wire head.
func linkConserved(l *Link) bool {
	return l.OfferedBytes() == l.DeliveredBytes()+l.WireLostBytes()+
		l.Queue.DroppedBytes()+l.FaultDroppedBytes()+int64(l.Queue.Bytes())+l.TxBytes()
}

// TestMaterializeFlapExpansion pins FlapSpec expansion without jitter: exact
// down/up cadence, termination at Until, and the down/up pairing that
// guarantees the link ends the schedule healed.
func TestMaterializeFlapExpansion(t *testing.T) {
	s := &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 1, DownDur: 0.5, UpDur: 1.5, Until: 5}}}
	evs := s.Materialize(nil, nil)
	// Cycles start at t=1, 3, 5 — but 5 is not < Until, so two cycles.
	want := []FaultEvent{
		{At: 1, Kind: FaultLinkDown, Link: "x"},
		{At: 1.5, Kind: FaultLinkUp, Link: "x"},
		{At: 3, Kind: FaultLinkDown, Link: "x"},
		{At: 3.5, Kind: FaultLinkUp, Link: "x"},
	}
	if len(evs) != len(want) {
		t.Fatalf("materialized %d events, want %d: %+v", len(evs), len(want), evs)
	}
	downs := 0
	for i, ev := range want {
		if evs[i].At != ev.At || evs[i].Kind != ev.Kind || evs[i].Link != ev.Link {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], ev)
		}
		if evs[i].Kind == FaultLinkDown {
			downs++
		} else {
			downs--
		}
	}
	if downs != 0 {
		t.Fatal("unbalanced down/up events: link would end the schedule down")
	}
}

// TestMaterializeCountLimit pins the Count limit and the one-shot default.
func TestMaterializeCountLimit(t *testing.T) {
	s := &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 0, DownDur: 1, UpDur: 1, Count: 3}}}
	if got := len(s.Materialize(nil, nil)); got != 6 {
		t.Fatalf("Count=3 produced %d events, want 6", got)
	}
	s = &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 2, DownDur: 1, UpDur: 1}}}
	if got := len(s.Materialize(nil, nil)); got != 2 {
		t.Fatalf("limitless spec produced %d events, want exactly one cycle (2)", got)
	}
}

// TestMaterializeJitterDeterministic draws two expansions from identically
// seeded RNGs (must match bit-for-bit), one from a different seed (must
// differ), and checks every jittered phase stays within the ±Jitter band.
func TestMaterializeJitterDeterministic(t *testing.T) {
	s := &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 1, DownDur: 0.4, UpDur: 0.6, Jitter: 0.3, Count: 20}}}
	a := s.Materialize(nil, rand.New(rand.NewSource(7)))
	b := s.Materialize(nil, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Kind != b[i].Kind || a[i].Link != b[i].Link {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := s.Materialize(nil, rand.New(rand.NewSource(8)))
	same := true
	for i := range a {
		if a[i].At != c[i].At {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered schedules")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Fatalf("materialized events not time-sorted: %+v", a)
	}
	for i := 0; i+1 < len(a); i++ {
		gap := a[i+1].At - a[i].At
		base := 0.4 // down phase precedes an up event
		if a[i].Kind == FaultLinkUp {
			base = 0.6
		}
		if gap < base*0.7-1e-12 || gap > base*1.3+1e-12 {
			t.Fatalf("phase %d duration %v outside ±30%% of %v", i, gap, base)
		}
	}
}

// TestMaterializeMergesEventsAndFlaps checks explicit events and flap
// expansions sort into one timeline, appended to the caller's slice.
func TestMaterializeMergesEventsAndFlaps(t *testing.T) {
	s := &FaultSchedule{
		Events: []FaultEvent{{At: 2.5, Kind: FaultPartition, Links: []string{"y"}}},
		Flaps:  []FlapSpec{{Link: "x", FirstDownAt: 1, DownDur: 1, UpDur: 1, Count: 2}},
	}
	evs := s.Materialize(make([]FaultEvent, 0, 8), nil)
	wantAt := []float64{1, 2, 2.5, 3, 4}
	if len(evs) != len(wantAt) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantAt))
	}
	for i, at := range wantAt {
		if evs[i].At != at {
			t.Fatalf("event %d at %v, want %v (merged timeline %+v)", i, evs[i].At, at, evs)
		}
	}
	if evs[2].Kind != FaultPartition {
		t.Fatalf("partition lost its slot in the merged timeline: %+v", evs)
	}
	if !(&FaultSchedule{}).Empty() || (s.Empty()) {
		t.Fatal("Empty() misreports")
	}
	var nilSched *FaultSchedule
	if !nilSched.Empty() {
		t.Fatal("nil schedule must be Empty")
	}
}

// TestSetDownDropsInFlight takes a link down while a packet train is in
// flight: the train must move from the delivered ledger to the fault ledger,
// queued packets must stay buffered, and conservation must hold at every
// transition.
func TestSetDownDropsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	// 1500 B at 1.5 MB/s = 1 ms serialization, 50 ms propagation: a deep
	// in-flight train.
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.050, 0, seeds.NextRand())
	delivered := 0
	link.Sink = func(p *Packet) { delivered++ }
	eng.At(0, func() {
		for i := int64(0); i < 20; i++ {
			link.Send(pkt(0, i, 1500))
		}
	})
	// At t=10.5ms: ~10 packets fully serialized (in flight), one on the wire
	// head, the rest queued. None has arrived yet (propagation 50 ms).
	eng.At(0.0105, func() {
		if link.Down() {
			t.Error("link down before SetDown")
		}
		link.SetDown(true)
		if !link.Down() {
			t.Error("Down() false after SetDown(true)")
		}
		if link.FaultDropped() == 0 {
			t.Error("no in-flight packets moved to the fault ledger")
		}
		if !linkConserved(link) {
			t.Error("conservation broken immediately after SetDown(true)")
		}
	})
	eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d packets, want 0 (all destroyed or still queued)", delivered)
	}
	// The wire-head packet finished serialization while down: it must be in
	// the fault ledger too, never delivered.
	if got := link.FaultDropped(); got != 11 {
		t.Fatalf("fault ledger has %d packets, want 11 (10 in flight + wire head)", got)
	}
	if q := link.Queue.Len(); q != 9 {
		t.Fatalf("queue holds %d packets, want 9 (buffering continues while down)", q)
	}
	if !linkConserved(link) {
		t.Fatal("conservation broken at end of run")
	}
}

// TestSetDownUpResumes drops the link, keeps offering traffic (which must
// buffer), brings it back up, and checks the buffered packets all flow out.
func TestSetDownUpResumes(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.010, 0, seeds.NextRand())
	var arrivals []float64
	link.Sink = func(p *Packet) { arrivals = append(arrivals, eng.Now()) }
	eng.At(0, func() { link.SetDown(true) })
	eng.At(0.1, func() {
		for i := int64(0); i < 5; i++ {
			link.Send(pkt(0, i, 1500))
		}
	})
	eng.At(0.2, func() {
		if len(arrivals) != 0 {
			t.Errorf("%d deliveries while down", len(arrivals))
		}
		link.SetDown(false)
	})
	eng.Run()
	if len(arrivals) != 5 {
		t.Fatalf("delivered %d after link-up, want all 5 buffered packets", len(arrivals))
	}
	// First packet: serialization restarts at 0.2, 1 ms per packet + 10 ms
	// propagation.
	if want := 0.2 + 0.001 + 0.010; math.Abs(arrivals[0]-want) > 1e-9 {
		t.Fatalf("first post-heal arrival at %v, want %v", arrivals[0], want)
	}
	if link.FaultDropped() != 0 {
		t.Fatalf("fault ledger %d, want 0 (nothing was in flight at SetDown)", link.FaultDropped())
	}
	if !linkConserved(link) {
		t.Fatal("conservation broken")
	}
}

// TestSetDownIdempotent pins that redundant SetDown calls do not double-drop
// or double-start the serializer.
func TestSetDownIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.050, 0, seeds.NextRand())
	n := 0
	link.Sink = func(p *Packet) { n++ }
	eng.At(0, func() {
		for i := int64(0); i < 4; i++ {
			link.Send(pkt(0, i, 1500))
		}
	})
	eng.At(0.0025, func() {
		link.SetDown(true)
		first := link.FaultDropped()
		link.SetDown(true)
		if link.FaultDropped() != first {
			t.Error("second SetDown(true) dropped again")
		}
	})
	eng.At(0.01, func() { link.SetDown(false); link.SetDown(false) })
	eng.Run()
	if !linkConserved(link) {
		t.Fatal("conservation broken")
	}
	if n+int(link.FaultDropped()) != 4 {
		t.Fatalf("delivered %d + fault-dropped %d, want 4 total", n, link.FaultDropped())
	}
}

// TestSetDownFlapWithinOneSerialization flaps the link for less than one
// serialization time: the wire head's completion falls after the heal, so it
// survives and is delivered on schedule, and only what was propagating dies.
func TestSetDownFlapWithinOneSerialization(t *testing.T) {
	eng := sim.NewEngine()
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.010, 0, nil)
	arrivals := map[int64]float64{}
	link.Sink = func(p *Packet) { arrivals[p.Seq] = eng.Now() }
	eng.At(0, func() {
		for i := int64(0); i < 3; i++ {
			link.Send(pkt(0, i, 1500))
		}
	})
	// Packet 0 is propagating, packet 1 on the wire until 2 ms.
	eng.At(0.0013, func() { link.SetDown(true) })
	eng.At(0.0016, func() {
		link.SetDown(false)
		if !linkConserved(link) {
			t.Error("conservation broken at the heal")
		}
	})
	eng.Run()
	if _, ok := arrivals[0]; ok || link.FaultDropped() != 1 {
		t.Fatalf("packet 0 arrived %v, fault ledger %d; want it destroyed in flight", ok, link.FaultDropped())
	}
	for seq, want := range map[int64]float64{1: 0.002 + 0.010, 2: 0.003 + 0.010} {
		if got, ok := arrivals[seq]; !ok || math.Abs(got-want) > 1e-12 {
			t.Fatalf("packet %d arrived at %v (delivered %v), want %v: the wire head must survive a flap shorter than its serialization", seq, got, ok, want)
		}
	}
	if !linkConserved(link) {
		t.Fatal("conservation broken at end of run")
	}
}

// TestSetDownDropsPacketRidingWake takes the link down while a completed
// packet rides the armed wake instead of the pipe: it is in flight like any
// pipe entry, so it must land in the fault ledger, never at the sink.
func TestSetDownDropsPacketRidingWake(t *testing.T) {
	eng := sim.NewEngine()
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.010, 0, nil)
	delivered := 0
	link.Sink = func(p *Packet) { delivered++ }
	eng.At(0, func() { link.Send(pkt(0, 0, 1500)) })
	// The second arrival completes packet 0 lazily; its delivery instant is
	// the one the wake is armed for.
	eng.At(0.0015, func() { link.Send(pkt(0, 1, 1500)) })
	eng.At(0.002, func() {
		if link.carry == nil || link.pipe.Len() != 0 {
			t.Errorf("setup: carry %v, pipe %d; want packet 0 riding the wake", link.carry, link.pipe.Len())
		}
		link.SetDown(true)
		if link.FaultDropped() != 1 || link.Delivered() != 0 || !linkConserved(link) {
			t.Errorf("after SetDown: fault ledger %d, delivered %d, conserved %v; want 1, 0, true",
				link.FaultDropped(), link.Delivered(), linkConserved(link))
		}
	})
	eng.Run()
	if delivered != 0 || link.FaultDropped() != 2 {
		t.Fatalf("delivered %d, fault ledger %d; want 0 and 2 (the rider and the doomed wire head)", delivered, link.FaultDropped())
	}
	if !linkConserved(link) {
		t.Fatal("conservation broken at end of run")
	}
}

// TestVaryingDoesNotResurrectDownedLink composes the two variation layers on
// one dumbbell bottleneck: VaryingSpec keeps re-drawing rate/loss/RTT while
// a fault holds the link down. Parameter writes must not restart the
// serializer; after the fault heals, traffic resumes under whatever
// parameters the redraw last chose, and conservation holds throughout.
func TestVaryingDoesNotResurrectDownedLink(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(3)
	deliveredAt := []float64{}
	topo, bottleneck := oneLinkTopo(eng, seeds, NewDropTail(-1), Mbps(100), 0, 0.015, 0,
		func(p *Packet) { deliveredAt = append(deliveredAt, eng.Now()) }, nil)
	spec := VaryingSpec{Period: 0.05, RateMin: Mbps(50), RateMax: Mbps(100), RTTMin: 0.01, RTTMax: 0.05, LossMin: 0, LossMax: 0}
	fwd, rev := topo.FlowRoutes(0)
	StartVarying(eng, bottleneck, fwd, rev, spec, seeds.NextRand(), 1)
	// Steady trickle of offered traffic for the whole second.
	for i := 0; i < 100; i++ {
		i := i
		eng.At(float64(i)*0.01, func() {
			topo.SendData(&Packet{Flow: 0, Seq: int64(i), Size: 1500, Sent: eng.Now()})
		})
	}
	// Fault window [0.3, 0.6): several redraw periods land inside it.
	eng.At(0.3, func() { bottleneck.SetDown(true) })
	eng.At(0.45, func() {
		if !bottleneck.Down() {
			t.Error("varying redraw resurrected a downed link")
		}
		if !linkConserved(bottleneck) {
			t.Error("conservation broken while down under varying redraws")
		}
	})
	eng.At(0.6, func() { bottleneck.SetDown(false) })
	eng.Run()
	for _, at := range deliveredAt {
		if at >= 0.3 && at < 0.6 {
			t.Fatalf("delivery at %v inside the outage window", at)
		}
	}
	var after int
	for _, at := range deliveredAt {
		if at >= 0.6 {
			after++
		}
	}
	if after == 0 {
		t.Fatal("no deliveries after the link healed")
	}
	if !linkConserved(bottleneck) {
		t.Fatal("conservation broken at end of run")
	}
}

// TestLinkResetWhileDown resets a link that is administratively down (the
// trial-arena respec path): the rebuilt link must come up clean — up, empty
// fault ledger, normal transmission.
func TestLinkResetWhileDown(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(5)
	link := NewLink(eng, NewDropTail(-1), 1500*1000, 0.050, 0, seeds.NextRand())
	link.Sink = func(p *Packet) {}
	eng.At(0, func() {
		for i := int64(0); i < 8; i++ {
			link.Send(pkt(0, i, 1500))
		}
	})
	eng.At(0.003, func() { link.SetDown(true) })
	eng.RunUntil(0.003)
	if !link.Down() || link.FaultDropped() == 0 {
		t.Fatalf("setup failed: down=%v faultDropped=%d", link.Down(), link.FaultDropped())
	}

	eng.Reset(nil)
	link.Queue = NewDropTail(-1)
	seeds2 := sim.NewSeeds(5)
	link.Reset(1500*1000, 0.010, 0, seeds2.Next())
	if link.Down() {
		t.Fatal("Reset left the link administratively down")
	}
	if link.FaultDropped() != 0 || link.FaultDroppedBytes() != 0 {
		t.Fatal("Reset did not clear the fault ledger")
	}
	delivered := 0
	link.Sink = func(p *Packet) { delivered++ }
	eng.At(0, func() { link.Send(pkt(0, 0, 1500)) })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("reset link delivered %d, want 1", delivered)
	}
	if !linkConserved(link) {
		t.Fatal("conservation broken after reset")
	}
}
