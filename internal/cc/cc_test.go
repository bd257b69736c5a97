package cc

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pcc/internal/core"
	"pcc/internal/netem"
	"pcc/internal/sack"
	"pcc/internal/sim"
)

func TestRTTEstimatorFirstSample(t *testing.T) {
	e := NewRTTEstimator()
	if e.HasSample() {
		t.Fatal("fresh estimator claims samples")
	}
	if e.RTO() != 1.0 {
		t.Fatalf("default RTO = %v, want 1.0", e.RTO())
	}
	e.Sample(0.1)
	if e.SRTT != 0.1 || e.RTTVar != 0.05 || e.MinRTT != 0.1 {
		t.Fatalf("first sample: srtt=%v var=%v min=%v", e.SRTT, e.RTTVar, e.MinRTT)
	}
}

func TestRTTEstimatorConvergesToConstant(t *testing.T) {
	e := NewRTTEstimator()
	for i := 0; i < 100; i++ {
		e.Sample(0.05)
	}
	if math.Abs(e.SRTT-0.05) > 1e-6 {
		t.Fatalf("srtt = %v, want 0.05", e.SRTT)
	}
	if e.RTO() != MinRTO {
		t.Fatalf("RTO = %v, want floor %v", e.RTO(), MinRTO)
	}
}

func TestRTTEstimatorIgnoresNonPositive(t *testing.T) {
	e := NewRTTEstimator()
	e.Sample(-1)
	e.Sample(0)
	if e.HasSample() {
		t.Fatal("non-positive samples must be ignored")
	}
}

// Property: MinRTT is always <= every sample fed in.
func TestRTTEstimatorMinProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		e := NewRTTEstimator()
		min := math.Inf(1)
		for _, s := range samples {
			v := float64(s+1) / 1000
			e.Sample(v)
			if v < min {
				min = v
			}
		}
		return len(samples) == 0 || e.MinRTT == min
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// loopback wires a sender and receiver through a perfect instant path.
type loopEnv struct {
	eng  *sim.Engine
	recv *Receiver
}

// fixedWindow is a test algorithm holding a constant window.
type fixedWindow struct{ w float64 }

func (f *fixedWindow) Name() string                            { return "fixed" }
func (f *fixedWindow) OnAck(now, rtt float64, e *RTTEstimator) {}
func (f *fixedWindow) OnDupAck()                               {}
func (f *fixedWindow) OnLossEvent(now float64)                 {}
func (f *fixedWindow) OnTimeout(now float64)                   {}
func (f *fixedWindow) Cwnd() float64                           { return f.w }

// buildPath builds the graph exp.NewRunner builds for a dumbbell — one
// netem.BottleneckLink — and returns it with the func that registers flow 0
// over it: rtt/2 of access delay out, rtt/2 back with ACK loss revLoss.
func buildPath(eng *sim.Engine, seed int64, rateMbps, rtt, loss float64, buf int) (*netem.Topology, func(revLoss float64, dataSink, ackSink func(*netem.Packet))) {
	seeds := sim.NewSeeds(seed)
	topo := netem.NewTopology(eng)
	topo.AddLink(netem.BottleneckLink, "senders", "receivers", netem.NewDropTail(buf), netem.Mbps(rateMbps), 0, loss, seeds.NextRand())
	return topo, func(revLoss float64, dataSink, ackSink func(*netem.Packet)) {
		topo.AddFlow(0, []netem.HopSpec{netem.DelayHop(rtt / 2), netem.LinkHop(netem.BottleneckLink)},
			[]netem.HopSpec{netem.LossyDelayHop(rtt/2, revLoss)}, seeds, dataSink, ackSink)
	}
}

func TestWindowSenderDeliversFiniteFlow(t *testing.T) {
	eng := sim.NewEngine()
	d, addFlow := buildPath(eng, 1, 100, 0.030, 0, 375*netem.KB)
	recv := NewReceiver(eng, 0)
	recv.SendAck = d.SendAck
	ws := NewWindowSender(eng, 0, &fixedWindow{w: 20}, d.SendData)
	ws.FlowPackets = 500
	doneAt := -1.0
	ws.OnDone = func(now float64) { doneAt = now }
	addFlow(0, recv.OnData, ws.OnAck)
	eng.At(0, ws.Start)
	eng.RunUntil(60)
	if doneAt < 0 {
		t.Fatal("finite flow never completed")
	}
	if recv.UniqueBytes() != 500*MSS {
		t.Fatalf("delivered %d bytes, want %d", recv.UniqueBytes(), 500*MSS)
	}
}

func TestWindowSenderRecoversFromLoss(t *testing.T) {
	eng := sim.NewEngine()
	d, addFlow := buildPath(eng, 5, 100, 0.030, 0.05, 375*netem.KB)
	recv := NewReceiver(eng, 0)
	recv.SendAck = d.SendAck
	ws := NewWindowSender(eng, 0, &fixedWindow{w: 50}, d.SendData)
	ws.FlowPackets = 2000
	done := false
	ws.OnDone = func(now float64) { done = true }
	addFlow(0, recv.OnData, ws.OnAck)
	eng.At(0, ws.Start)
	eng.RunUntil(120)
	if !done {
		t.Fatalf("flow with 5%% loss never completed (acked so far: %d/%d, rtx %d)",
			recv.UniquePackets(), 2000, ws.Retransmitted())
	}
	if ws.Retransmitted() == 0 {
		t.Fatal("5% loss produced zero retransmissions")
	}
}

// UniquePackets helper for tests.
func (r *Receiver) UniquePackets() int64 { return r.uniquePkts }

func TestWindowSenderThroughputMatchesWindow(t *testing.T) {
	// cwnd 25 packets at 30 ms RTT ≈ 10 Mbps, well under the 100 Mbps
	// link: goodput should match the window-limited prediction.
	eng := sim.NewEngine()
	d, addFlow := buildPath(eng, 2, 100, 0.030, 0, 375*netem.KB)
	recv := NewReceiver(eng, 0)
	recv.SendAck = d.SendAck
	ws := NewWindowSender(eng, 0, &fixedWindow{w: 25}, d.SendData)
	addFlow(0, recv.OnData, ws.OnAck)
	eng.At(0, ws.Start)
	eng.RunUntil(30)
	got := float64(recv.UniqueBytes()) / 30
	want := 25 * MSS / 0.0304 // window / (RTT + serialization)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("goodput %.0f B/s, want ~%.0f", got, want)
	}
}

// fixedRate is a test RateAlgo pacing at a constant rate.
type fixedRate struct{ r float64 }

func (f *fixedRate) Name() string                              { return "fixedrate" }
func (f *fixedRate) Start(now float64)                         {}
func (f *fixedRate) Rate(now float64) float64                  { return f.r }
func (f *fixedRate) OnSend(seq int64, size int, now float64)   {}
func (f *fixedRate) OnAck(seq int64, rtt float64, now float64) {}
func (f *fixedRate) OnLost(seq int64, now float64)             {}

func TestRateSenderPacesAtTargetRate(t *testing.T) {
	eng := sim.NewEngine()
	d, addFlow := buildPath(eng, 3, 100, 0.030, 0, 375*netem.KB)
	recv := NewReceiver(eng, 0)
	recv.SendAck = d.SendAck
	rs := NewRateSender(eng, 0, &fixedRate{r: netem.Mbps(20)}, d.SendData)
	addFlow(0, recv.OnData, rs.OnAck)
	eng.At(0, rs.Start)
	eng.RunUntil(20)
	got := netem.ToMbps(float64(recv.UniqueBytes()) / 20)
	if got < 19 || got > 21 {
		t.Fatalf("paced goodput %.1f Mbps, want ~20", got)
	}
}

func TestRateSenderCompletesUnderHeavyLoss(t *testing.T) {
	eng := sim.NewEngine()
	d, addFlow := buildPath(eng, 11, 100, 0.030, 0.2, 375*netem.KB)
	recv := NewReceiver(eng, 0)
	recv.SendAck = d.SendAck
	rs := NewRateSender(eng, 0, &fixedRate{r: netem.Mbps(10)}, d.SendData)
	rs.FlowPackets = 1000
	done := false
	rs.OnDone = func(now float64) { done = true }
	addFlow(0, recv.OnData, rs.OnAck)
	eng.At(0, rs.Start)
	eng.RunUntil(120)
	if !done {
		t.Fatalf("rate flow with 20%% loss never completed (rtx=%d)", rs.Retransmitted())
	}
}

func TestReceiverGoodputDeduplicates(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReceiver(eng, 0)
	acks := 0
	r.SendAck = func(p *netem.Packet) { acks++ }
	for i := 0; i < 3; i++ {
		r.OnData(&netem.Packet{Flow: 0, Seq: 0, Size: MSS})
	}
	if r.UniqueBytes() != MSS {
		t.Fatalf("duplicates counted: %d", r.UniqueBytes())
	}
	if acks != 3 {
		t.Fatalf("every arrival must be acked: %d", acks)
	}
	if r.TotalPackets() != 3 {
		t.Fatalf("total = %d", r.TotalPackets())
	}
}

func TestReceiverCumAckAdvancesThroughHoles(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReceiver(eng, 0)
	var lastCum int64
	r.SendAck = func(p *netem.Packet) { lastCum = p.CumAck }
	r.OnData(&netem.Packet{Seq: 0, Size: MSS})
	r.OnData(&netem.Packet{Seq: 2, Size: MSS}) // hole at 1
	if lastCum != 1 {
		t.Fatalf("cumAck = %d, want 1", lastCum)
	}
	r.OnData(&netem.Packet{Seq: 1, Size: MSS}) // fill the hole
	if lastCum != 3 {
		t.Fatalf("cumAck = %d, want 3 after hole fill", lastCum)
	}
}

func TestReceiverBuckets(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReceiver(eng, 0)
	r.Bucket = 1
	r.SendAck = func(p *netem.Packet) {}
	eng.At(0.5, func() { r.OnData(&netem.Packet{Seq: 0, Size: MSS}) })
	eng.At(1.5, func() { r.OnData(&netem.Packet{Seq: 1, Size: MSS}) })
	eng.At(1.6, func() { r.OnData(&netem.Packet{Seq: 2, Size: MSS}) })
	eng.Run()
	s := r.BucketSeries()
	if len(s) != 2 || s[0] != MSS || s[1] != 2*MSS {
		t.Fatalf("bucket series = %v", s)
	}
}

// TestWindowSenderHonorsPktSize: a small-packet flow's delivered bytes and
// window-limited throughput both scale with the configured wire size.
func TestWindowSenderHonorsPktSize(t *testing.T) {
	eng := sim.NewEngine()
	d, addFlow := buildPath(eng, 9, 100, 0.030, 0, 375*netem.KB)
	recv := NewReceiver(eng, 0)
	recv.SendAck = d.SendAck
	ws := NewWindowSender(eng, 0, &fixedWindow{w: 20}, d.SendData)
	ws.PktSize = 512
	ws.FlowPackets = 500
	doneAt := -1.0
	ws.OnDone = func(now float64) { doneAt = now }
	addFlow(0, recv.OnData, ws.OnAck)
	eng.At(0, ws.Start)
	eng.RunUntil(60)
	if doneAt < 0 {
		t.Fatal("finite 512-byte flow never completed")
	}
	if recv.UniqueBytes() != 500*512 {
		t.Fatalf("delivered %d bytes, want %d", recv.UniqueBytes(), 500*512)
	}
}

// TestRateSenderHonorsPktSize: the pacing clock spaces PktSize-sized
// packets, so a fixed byte rate delivers the same goodput regardless of the
// packet size carrying it.
func TestRateSenderHonorsPktSize(t *testing.T) {
	for _, size := range []int{512, 9000} {
		eng := sim.NewEngine()
		d, addFlow := buildPath(eng, 3, 100, 0.030, 0, 375*netem.KB)
		recv := NewReceiver(eng, 0)
		recv.SendAck = d.SendAck
		rs := NewRateSender(eng, 0, &fixedRate{r: 1.25e6}, d.SendData) // 10 Mbps
		rs.PktSize = size
		addFlow(0, recv.OnData, rs.OnAck)
		eng.At(0, rs.Start)
		eng.RunUntil(30)
		got := float64(recv.UniqueBytes()) / 30
		if got < 1.25e6*0.95 || got > 1.25e6*1.05 {
			t.Fatalf("size %d: goodput %.0f B/s, want ~1.25e6", size, got)
		}
		if rem := recv.UniqueBytes() % int64(size); rem != 0 {
			t.Fatalf("size %d: delivered bytes %d not a multiple of the wire size", size, recv.UniqueBytes())
		}
	}
}

// scanOutstanding recounts a scoreboard's un-SACKed entries the O(window) way.
func scanOutstanding(b *sack.Board) int {
	n := 0
	for seq := b.CumAck(); seq < b.Next(); seq++ {
		if !b.Lookup(seq).Sacked {
			n++
		}
	}
	return n
}

// TestSenderOutstandingCounterMatchesScan runs both senders through real
// SACK, loss, retransmission, cumulative-coverage (lost ACKs) and timeout
// sequences on a lossy path and checks, between events throughout the run,
// that the scoreboard's un-SACKed counter — what flow completion and the
// tail timer read — equals a full scan.
func TestSenderOutstandingCounterMatchesScan(t *testing.T) {
	t.Parallel()
	for _, kind := range []string{"window", "rate"} {
		eng := sim.NewEngine()
		d, addFlow := buildPath(eng, 21, 20, 0.030, 0.05, 30*netem.KB)
		recv := NewReceiver(eng, 0)
		recv.SendAck = d.SendAck
		var board *sack.Board
		var ackSink func(*netem.Packet)
		var start func()
		var retransmitted func() int64
		done := false
		switch kind {
		case "window":
			ws := NewWindowSender(eng, 0, &fixedWindow{w: 60}, d.SendData)
			ws.FlowPackets = 4000
			ws.OnDone = func(float64) { done = true }
			board, ackSink, start, retransmitted = &ws.board, ws.OnAck, ws.Start, ws.Retransmitted
		case "rate":
			rs := NewRateSender(eng, 0, &fixedRate{r: netem.Mbps(25)}, d.SendData)
			rs.FlowPackets = 4000
			rs.OnDone = func(float64) { done = true }
			board, ackSink, start, retransmitted = &rs.board, rs.OnAck, rs.Start, rs.Retransmitted
		}
		addFlow(0.05, recv.OnData, ackSink)
		checks := 0
		var probe func()
		probe = func() {
			if got, want := board.Outstanding(), scanOutstanding(board); got != want {
				t.Fatalf("%s sender at %.4f s: counter %d, scan %d over [%d,%d)", kind, eng.Now(), got, want, board.CumAck(), board.Next())
			}
			checks++
			if !done {
				eng.Post(0.0007, probe)
			}
		}
		eng.Post(0, start)
		eng.Post(0, probe)
		eng.RunUntil(300)
		if !done || board.Outstanding() != 0 {
			t.Fatalf("%s sender: done=%v with %d outstanding", kind, done, board.Outstanding())
		}
		if retransmitted() == 0 || checks < 1000 {
			t.Fatalf("%s sender: %d retransmissions over %d probes; the path did not exercise recovery", kind, retransmitted(), checks)
		}
	}
}

// BenchmarkRateSenderPCC times one packet of a PCC flow through RateSender
// and Receiver back to back over PostArg: 5 ms each way behind a 100 Mbps
// drop-tail bottleneck with 10 ms of buffer, modelled in the send hook so
// the controller settles instead of doubling for ever. The sender calls
// core.PCC through the RateAlgo interface, as it does every algorithm. Warm
// (after 50 000 ACKs) the path allocates nothing; CI's bench-delta job
// gates that.
func BenchmarkRateSenderPCC(b *testing.B) {
	const capacity, buffer = 100e6 / 8, 0.01 // bytes/s; seconds of queue
	eng := sim.NewEngine()
	pool := &netem.PacketPool{}
	recv := NewReceiver(eng, 0)
	recv.Pool = pool
	var rs *RateSender
	acks := 0
	toRecv := func(arg any) { recv.OnData(arg.(*netem.Packet)) }
	toSend := func(arg any) {
		rs.OnAck(arg.(*netem.Packet))
		if acks--; acks == 0 {
			eng.Halt()
		}
	}
	recv.SendAck = func(p *netem.Packet) { eng.PostArg(0.005, toSend, p) }
	busy := 0.0 // when the bottleneck finishes its queue
	send := func(p *netem.Packet) {
		now := eng.Now()
		start := max(now, busy)
		if start-now > buffer {
			pool.Put(p) // tail drop
			return
		}
		busy = start + float64(p.Size)/capacity
		eng.PostArg(busy-now+0.005, toRecv, p)
	}
	rs = NewRateSender(eng, 0, core.New(core.DefaultConfig(0.01), rand.New(rand.NewSource(1))), send)
	rs.Pool = pool
	rs.Start()
	acks = 50_000
	eng.Run()
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	acks = b.N
	eng.Run()
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	// allocs/op rounds down, so an allocation every few hundred packets
	// (one per MI, say) reads 0 there; this exact rate does not.
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "mallocs/op")
}
