package netem

import (
	"math"
	"math/rand"
	"sort"
	"strings"
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

// refAct is one act of the reference expansion: links switched down or up
// at one instant.
type refAct struct {
	at    float64
	down  bool
	links []string
}

// materializeRef is the up-front expansion flaps had before they re-armed
// themselves, kept as the reference the injector is checked against: the
// explicit events, then every flap cycle unfolded in spec order with jitter
// drawn from rng as it goes, stable-sorted by time. With one jittered flap it
// draws in the injector's order.
func materializeRef(s *FaultSchedule, rng *rand.Rand) []refAct {
	var acts []refAct
	for _, ev := range s.Events {
		acts = append(acts, refAct{ev.At, ev.Down, ev.Links})
	}
	for _, f := range s.Flaps {
		jit := func(d float64) float64 {
			if f.Jitter <= 0 || rng == nil {
				return d
			}
			u := float64(rng.Float64())
			d *= 1 + float64(f.Jitter*(2*u-1))
			if d < 0 {
				return 0
			}
			return d
		}
		link := []string{f.Link}
		for t := f.FirstDownAt; t < f.Until; {
			acts = append(acts, refAct{t, true, link})
			t += jit(f.DownDur)
			acts = append(acts, refAct{t, false, link})
			t += jit(f.UpDur)
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	return acts
}

// runAgainstRef installs s on a fresh engine over links "x" and "y", with
// jitter drawn from a stream seeded with seed, runs it to the end, and checks
// every executed act against materializeRef's expansion from the same seed,
// bit for bit: at each distinct reference time T, the log and both links'
// states must be the reference's just below T (nothing of T ran early) and
// at T (all of it ran, none late), and nothing may run after the last.
// Returns the reference.
func runAgainstRef(t *testing.T, s *FaultSchedule, seed int64) []refAct {
	t.Helper()
	eng := sim.NewEngine()
	topo := NewTopology(eng)
	for _, name := range []string{"x", "y"} {
		topo.AddLink(name, name+"0", name+"1", NewDropTail(-1), 1e6, 0.001, 0, nil)
	}
	var in FaultInjector
	in.Install(topo, s, rand.New(rand.NewSource(seed)))
	// Expanded only once Install has accepted the flaps: a cycle that never
	// advances time would unfold forever.
	want := materializeRef(s, rand.New(rand.NewSource(seed)))
	var log FaultLog
	down := map[string]bool{}
	check := func(when string, at float64) {
		t.Helper()
		if got := in.Log(); got != log {
			t.Fatalf("%s %v: log %+v, reference %+v", when, at, got, log)
		}
		for _, name := range []string{"x", "y"} {
			if got := topo.LinkByName(name).Down(); got != down[name] {
				t.Fatalf("%s %v: link %s down %v, reference %v", when, at, name, got, down[name])
			}
		}
	}
	for i := 0; i < len(want); {
		at := want[i].at
		eng.RunUntil(math.Nextafter(at, math.Inf(-1)))
		check("just before", at)
		for ; i < len(want) && want[i].at == at; i++ {
			a := want[i]
			if a.down {
				log.Downs++
			} else {
				log.Ups++
				log.LastUp = at
			}
			for _, name := range a.links {
				down[name] = a.down
			}
		}
		eng.RunUntil(at)
		check("at", at)
	}
	eng.Run()
	check("after the last act, at", eng.Now())
	return want
}

// TestMaterializeFlapExpansion pins a flap without jitter: exact down/up
// cadence, termination at Until, and the down/up pairing that guarantees the
// link ends the schedule healed.
func TestMaterializeFlapExpansion(t *testing.T) {
	s := &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 1, DownDur: 0.5, UpDur: 1.5, Until: 5}}}
	acts := runAgainstRef(t, s, 1)
	// Cycles start at t=1, 3, 5 — but 5 is not < Until, so two cycles.
	want := []refAct{{1, true, nil}, {1.5, false, nil}, {3, true, nil}, {3.5, false, nil}}
	if len(acts) != len(want) {
		t.Fatalf("ran %d acts, want %d: %+v", len(acts), len(want), acts)
	}
	downs := 0
	for i, a := range want {
		if acts[i].at != a.at || acts[i].down != a.down || acts[i].links[0] != "x" {
			t.Fatalf("act %d = %+v, want %+v on x", i, acts[i], a)
		}
		if a.down {
			downs++
		} else {
			downs--
		}
	}
	if downs != 0 {
		t.Fatal("unbalanced down/up acts: link would end the schedule down")
	}
}

// TestMaterializeCountLimit pins Until's bound: a cycle starts only strictly
// before Until, its up still fires when that lands at or after Until, and a
// flap whose first down is not before Until never runs.
func TestMaterializeCountLimit(t *testing.T) {
	for _, row := range []struct {
		until  float64
		downs  int
		lastUp float64
	}{
		{5, 3, 5},   // downs at 0, 2, 4; the last up lands on Until
		{4, 2, 3},   // a down at 4 would not be before Until
		{4.5, 3, 5}, // the last up lands past Until
		{0, 0, 0},   // FirstDownAt 0 is not before Until 0
	} {
		s := &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 0, DownDur: 1, UpDur: 1, Until: row.until}}}
		acts := runAgainstRef(t, s, 1)
		log := FaultLog{Downs: row.downs, Ups: row.downs, LastUp: row.lastUp}
		if len(acts) != 2*row.downs {
			t.Fatalf("Until %v: %d acts, want %d", row.until, len(acts), 2*row.downs)
		}
		var in FaultInjector
		eng := sim.NewEngine()
		topo := NewTopology(eng)
		topo.AddLink("x", "a", "b", NewDropTail(-1), 1e6, 0, 0, nil)
		in.Install(topo, s, nil)
		eng.Run()
		if in.Log() != log {
			t.Fatalf("Until %v: log %+v, want %+v", row.until, in.Log(), log)
		}
	}
}

// TestMaterializeJitterDeterministic runs two jittered flaps from identically
// seeded streams (must match bit-for-bit), one from a different seed (must
// differ), and checks every jittered phase stays within the ±Jitter band.
func TestMaterializeJitterDeterministic(t *testing.T) {
	s := &FaultSchedule{Flaps: []FlapSpec{{Link: "x", FirstDownAt: 1, DownDur: 0.4, UpDur: 0.6, Jitter: 0.3, Until: 20}}}
	a := runAgainstRef(t, s, 7)
	b := runAgainstRef(t, s, 7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].down != b[i].down {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := runAgainstRef(t, s, 8)
	same := true
	for i := range a {
		if i >= len(c) || a[i].at != c[i].at {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered schedules")
	}
	for i := 0; i+1 < len(a); i++ {
		gap := a[i+1].at - a[i].at
		base := 0.4 // down phase precedes an up act
		if !a[i].down {
			base = 0.6
		}
		if gap < base*0.7-1e-12 || gap > base*1.3+1e-12 {
			t.Fatalf("phase %d duration %v outside ±30%% of %v", i, gap, base)
		}
	}
}

// TestMaterializeMergesEventsAndFlaps checks explicit events and a flap's
// re-armed phases run as one timeline, an explicit event ahead of a flap act
// at the same instant.
func TestMaterializeMergesEventsAndFlaps(t *testing.T) {
	s := &FaultSchedule{
		Events: []FaultEvent{
			{At: 2.5, Down: true, Links: []string{"y"}},
			{At: 3, Links: []string{"x"}},
			{At: 3.25, Links: []string{"y"}},
		},
		Flaps: []FlapSpec{{Link: "x", FirstDownAt: 1, DownDur: 1, UpDur: 1, Until: 4}},
	}
	acts := runAgainstRef(t, s, 1)
	wantAt := []float64{1, 2, 2.5, 3, 3, 3.25, 4}
	if len(acts) != len(wantAt) {
		t.Fatalf("got %d acts, want %d", len(acts), len(wantAt))
	}
	for i, at := range wantAt {
		if acts[i].at != at {
			t.Fatalf("act %d at %v, want %v (merged timeline %+v)", i, acts[i].at, at, acts)
		}
	}
	if !acts[2].down || acts[2].links[0] != "y" || acts[3].down || !acts[4].down {
		t.Fatalf("explicit events lost their slots in the merged timeline: %+v", acts)
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

// FuzzFaultSchedule installs one flap of link "x" beside an explicit
// partition of link "y": Install must panic with the flap's malformed-spec
// message exactly when a phase is negative or the cycle is 0 s long, and
// otherwise every executed act must match materializeRef bit for bit, with
// "x" healed at the end. Times and durations are eighths of a second within
// ±16 s (times from 0) and jitter stays below 1, so every well-formed flap
// ends. Seed corpus entries live in testdata/fuzz/FuzzFaultSchedule;
// seed_zero_cycle is a flap with a 0 s cycle that would otherwise re-arm at
// one instant forever.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint8(8), int8(4), int8(12), uint8(0), int8(40), uint8(16), int64(1))
	f.Add(uint8(0), int8(8), int8(8), uint8(77), int8(127), uint8(3), int64(7))
	f.Add(uint8(8), int8(-1), int8(2), uint8(0), int8(16), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, first uint8, down, up int8, jitter uint8, until int8, part uint8, seed int64) {
		flap := FlapSpec{Link: "x", FirstDownAt: float64(first) / 8, DownDur: float64(down) / 8,
			UpDur: float64(up) / 8, Jitter: float64(jitter) / 256, Until: float64(until) / 8}
		s := &FaultSchedule{
			Events: []FaultEvent{{At: float64(part) / 8, Down: true, Links: []string{"y"}}},
			Flaps:  []FlapSpec{flap},
		}
		malformed := flap.DownDur < 0 || flap.UpDur < 0 || flap.DownDur+flap.UpDur <= 0
		var acts []refAct
		func() {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				msg, _ := r.(string)
				if !malformed || !strings.Contains(msg, `netem: flap on link "x"`) {
					t.Fatalf("Install(%+v) panicked: %v", flap, r)
				}
			}()
			acts = runAgainstRef(t, s, seed)
			if malformed {
				t.Fatalf("Install(%+v) ran %d acts, want a panic", flap, len(acts))
			}
		}()
		if malformed {
			return
		}
		parts, open := 0, 0
		for _, a := range acts {
			switch {
			case a.links[0] == "y":
				parts++
			case a.down:
				open++
			default:
				if open--; open < 0 {
					t.Fatalf("an up of x comes before its down: %+v", acts)
				}
			}
		}
		if parts != 1 || open != 0 {
			t.Fatalf("%d partitions, %d downs of x without an up: %+v", parts, open, acts)
		}
	})
}
