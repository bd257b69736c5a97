package netem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pcc/internal/sim"
)

func pkt(flow int, seq int64, size int) *Packet {
	return &Packet{Flow: flow, Seq: seq, Size: size}
}

func TestDropTailByteCap(t *testing.T) {
	q := NewDropTail(3000)
	if !q.Enqueue(pkt(0, 0, 1500), 0) || !q.Enqueue(pkt(0, 1, 1500), 0) {
		t.Fatal("packets within capacity rejected")
	}
	if q.Enqueue(pkt(0, 2, 1500), 0) {
		t.Fatal("packet beyond capacity accepted")
	}
	if q.Dropped() != 1 {
		t.Fatalf("drops = %d, want 1", q.Dropped())
	}
	if q.Bytes() != 3000 || q.Len() != 2 {
		t.Fatalf("bytes=%d len=%d", q.Bytes(), q.Len())
	}
}

func TestDropTailAdmitsWhenEmpty(t *testing.T) {
	// A one-byte buffer still admits a single packet so the link can make
	// progress (single-packet-buffer router, §4.1.6).
	q := NewDropTail(1)
	if !q.Enqueue(pkt(0, 0, 1500), 0) {
		t.Fatal("empty queue must admit one packet regardless of capacity")
	}
	if q.Enqueue(pkt(0, 1, 1500), 0) {
		t.Fatal("second packet must be rejected")
	}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(-1)
	for i := int64(0); i < 100; i++ {
		q.Enqueue(pkt(0, i, 100), 0)
	}
	for i := int64(0); i < 100; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d returned %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty queue returned a packet")
	}
}

// Property: enqueued = dequeued + dropped, and bytes never exceed capacity.
func TestDropTailConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewDropTail(10 * 1500)
		enq, deq, seq := 0, 0, int64(0)
		for _, op := range ops {
			if op%3 == 0 {
				if q.Dequeue(0) != nil {
					deq++
				}
			} else {
				if q.Enqueue(pkt(0, seq, 1500), 0) {
					enq++
				}
				seq++
			}
			if q.Bytes() > 10*1500 {
				return false
			}
		}
		return enq == deq+q.Len()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCoDelDropsOnStandingQueue(t *testing.T) {
	q := NewCoDel(-1)
	now := 0.0
	// Build a standing queue and dequeue slower than arrivals so sojourn
	// stays far above target for much longer than interval.
	for i := int64(0); i < 200; i++ {
		q.Enqueue(pkt(0, i, 1500), now)
	}
	drops := int64(0)
	for i := 0; i < 150; i++ {
		now += 0.02 // 20 ms per dequeue: sojourn grows way beyond 5 ms
		if q.Dequeue(now) == nil {
			break
		}
		drops = q.Dropped()
	}
	if drops == 0 {
		t.Fatal("CoDel never dropped despite a persistent standing queue")
	}
}

func TestCoDelNoDropsUnderTarget(t *testing.T) {
	q := NewCoDel(-1)
	now := 0.0
	for i := int64(0); i < 1000; i++ {
		q.Enqueue(pkt(0, i, 1500), now)
		now += 0.001
		if q.Dequeue(now) == nil {
			t.Fatal("lost a packet")
		}
	}
	if q.Dropped() != 0 {
		t.Fatalf("CoDel dropped %d packets with sojourn ~1 ms < target", q.Dropped())
	}
}

func TestFQFairAlternation(t *testing.T) {
	fq := NewFQ(1 << 20)
	for i := int64(0); i < 50; i++ {
		fq.Enqueue(pkt(0, i, 1500), 0)
		fq.Enqueue(pkt(1, i, 1500), 0)
	}
	counts := map[int]int{}
	for i := 0; i < 40; i++ {
		p := fq.Dequeue(0)
		counts[p.Flow]++
	}
	if counts[0] != 20 || counts[1] != 20 {
		t.Fatalf("DRR not fair over equal-size packets: %v", counts)
	}
}

func TestFQByteFairnessUnequalSizes(t *testing.T) {
	// Flow 0 sends 500 B packets, flow 1 sends 1500 B packets; DRR should
	// serve roughly equal BYTES, i.e. 3x as many small packets.
	fq := NewFQ(1 << 20)
	for i := int64(0); i < 300; i++ {
		fq.Enqueue(pkt(0, i, 500), 0)
		fq.Enqueue(pkt(1, i, 1500), 0)
	}
	bytes := map[int]int{}
	for i := 0; i < 200; i++ {
		p := fq.Dequeue(0)
		bytes[p.Flow] += p.Size
	}
	ratio := float64(bytes[0]) / float64(bytes[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("byte shares unfair: %v (ratio %.2f)", bytes, ratio)
	}
}

func TestFQIsolation(t *testing.T) {
	// A flooding flow must not be able to push out the quiet flow's packet.
	fq := NewFQ(10 * 1500)
	for i := int64(0); i < 100; i++ {
		fq.Enqueue(pkt(0, i, 1500), 0)
	}
	if !fq.Enqueue(pkt(1, 0, 1500), 0) {
		t.Fatal("quiet flow's packet rejected despite per-flow queueing")
	}
	// The quiet flow's packet must be served within the first few rounds.
	for i := 0; i < 3; i++ {
		if fq.Dequeue(0).Flow == 1 {
			return
		}
	}
	t.Fatal("quiet flow not served promptly")
}

func TestLinkSerializationTiming(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	link := NewLink(eng, NewDropTail(-1), 1500*100, 0.010, 0, seeds.NextRand())
	var arrivals []float64
	link.Sink = func(p *Packet) { arrivals = append(arrivals, eng.Now()) }
	eng.At(0, func() {
		link.Send(pkt(0, 0, 1500))
		link.Send(pkt(0, 1, 1500))
	})
	eng.Run()
	// Serialization 1500B at 150000 B/s = 10 ms, plus 10 ms propagation.
	want := []float64{0.020, 0.030}
	for i, w := range want {
		if diff := arrivals[i] - w; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], w)
		}
	}
}

func TestLinkRandomLossRate(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(7)
	link := NewLink(eng, NewDropTail(-1), 1500*1e6, 0, 0.1, seeds.NextRand())
	delivered := 0
	link.Sink = func(p *Packet) { delivered++ }
	const n = 20000
	eng.At(0, func() {
		for i := int64(0); i < n; i++ {
			link.Send(pkt(0, i, 1500))
		}
	})
	eng.Run()
	lossRate := 1 - float64(delivered)/n
	if lossRate < 0.08 || lossRate > 0.12 {
		t.Fatalf("empirical loss %.3f, want ~0.10", lossRate)
	}
}

func TestDumbbellRTT(t *testing.T) {
	eng := sim.NewEngine()
	var topo *Topology
	var rtt float64
	topo, _ = oneLinkTopo(eng, sim.NewSeeds(1), NewDropTail(-1), Mbps(100), 0, 0.015, 0,
		func(p *Packet) {
			topo.SendAck(&Packet{Flow: 0, Ack: true, Size: 40, EchoSent: p.Sent})
		},
		func(p *Packet) { rtt = eng.Now() - p.EchoSent })
	eng.At(0, func() {
		topo.SendData(&Packet{Flow: 0, Seq: 0, Size: 1500, Sent: 0})
	})
	eng.Run()
	minRTT := 0.030 + 1500/Mbps(100)
	if rtt < minRTT-1e-9 || rtt > minRTT+0.001 {
		t.Fatalf("rtt = %v, want ~%v", rtt, minRTT)
	}
}

func TestVaryingRedraw(t *testing.T) {
	eng := sim.NewEngine()
	seeds := sim.NewSeeds(1)
	topo, bottleneck := oneLinkTopo(eng, seeds, NewDropTail(-1), Mbps(100), 0, 0.015, 0, nil, nil)
	spec := VaryingSpec{Period: 1, RateMin: Mbps(10), RateMax: Mbps(100), RTTMin: 0.01, RTTMax: 0.1, LossMin: 0, LossMax: 0.01}
	fwd, rev := topo.FlowRoutes(0)
	trace := StartVarying(eng, bottleneck, fwd, rev, spec, seeds.NextRand(), 10)
	eng.RunUntil(10)
	if len(*trace) != 10 {
		t.Fatalf("got %d redraws, want 10", len(*trace))
	}
	for _, s := range *trace {
		if s.Rate < Mbps(10) || s.Rate > Mbps(100) || s.RTT < 0.01 || s.RTT > 0.1 || s.Loss < 0 || s.Loss > 0.01 {
			t.Fatalf("sample out of range: %+v", s)
		}
	}
}

func TestUnitsRoundTrip(t *testing.T) {
	if got := ToMbps(Mbps(42)); got != 42 {
		t.Fatalf("ToMbps(Mbps(42)) = %v", got)
	}
}
