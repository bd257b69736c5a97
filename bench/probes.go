package main

import (
	"math/rand"
	"runtime"
	"time"

	"pcc/internal/cc"
	"pcc/internal/core"
	"pcc/internal/exp"
	"pcc/internal/netem"
	"pcc/internal/sim"
)

// probeBatches is how many timed batches a probe runs after its warm-up; a
// probe reports the fastest, so a 0-alloc steady-state path records 0.
const probeBatches = 5

// measure runs fn(n) once to warm the state fn keeps between calls, then
// probeBatches more times, and returns the fastest batch's time and
// allocations per operation.
func measure(n int, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	return measureTimed(n, func(n int) time.Duration {
		t0 := time.Now()
		fn(n)
		return time.Since(t0)
	})
}

// measureTimed is measure for a probe that times only part of its work.
func measureTimed(n int, fn func(n int) time.Duration) (nsPerOp, allocsPerOp float64) {
	fn(n)
	var ms runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		d := fn(n)
		runtime.ReadMemStats(&ms)
		ns := float64(d.Nanoseconds()) / float64(n)
		allocs := float64(ms.Mallocs-mallocs) / float64(n)
		if b == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if b == 0 || allocs < allocsPerOp {
			allocsPerOp = allocs
		}
	}
	return nsPerOp, allocsPerOp
}

// ops scales a probe's full op count to the run's size.
func (r *run) ops(full int) int { return max(16, full/r.sz.ProbeDiv) }

// runProbes measures every isolated per-layer probe. Probes are the same on
// every workload: they time one package's exported calls on a fixed input,
// so a layer's cost is on record next to whichever workload was traced. For
// the same reason a process measures them once per (size, seed): the command
// runs one workload per process, the self-test runs all four in one.
func runProbes(r *run) {
	key := probeKey{r.o.size, r.o.seed}
	if probed[key] == nil {
		workload := r.values
		r.values = make(map[string]float64)
		probeSim(r)
		probeNetem(r)
		probeCC(r)
		probeCore(r)
		probeExp(r)
		probeTopogen(r)
		probeServe(r)
		probeTransport(r)
		probeTrace(r)
		probed[key], r.values = r.values, workload
	}
	for name, v := range probed[key] {
		r.values[name] = v
	}
}

type probeKey struct {
	size string
	seed int64
}

var probed = map[probeKey]map[string]float64{}

// chain is a self-rescheduling event: the pattern of every pacing loop. It
// halts the engine when its budget is spent, so ballast and other timers
// stay queued from one batch to the next.
type chain struct {
	eng  *sim.Engine
	left int
	step func()
}

func newChain(eng *sim.Engine, schedule func(c *chain)) *chain {
	c := &chain{eng: eng}
	c.step = func() {
		if c.left--; c.left <= 0 {
			eng.Halt()
			return
		}
		schedule(c)
	}
	return c
}

func (c *chain) run(n int) {
	c.left = n
	c.step()
	c.eng.Run()
}

func probeSim(r *run) {
	// sim.event_ns: one Post chain on an otherwise empty engine.
	eng := sim.NewEngine()
	ch := newChain(eng, func(c *chain) { eng.Post(0.001, c.step) })
	ns, allocs := measure(r.ops(2_000_000), ch.run)
	r.set("sim.event_ns", ns)
	r.set("sim.allocs_per_event", allocs)

	// sim.event_deep_ns: the same chain over 4096 far-future ballast timers,
	// the heap depth of a large incast.
	eng = sim.NewEngine()
	for i := 0; i < 4096; i++ {
		eng.At(float64(i)*1e9+1e6, func() {})
	}
	ch = newChain(eng, func(c *chain) { eng.Post(0.001, c.step) })
	ns, _ = measure(r.ops(2_000_000), ch.run)
	r.set("sim.event_deep_ns", ns)

	// sim.wheel_ns: 4096 live timers rescheduling at 160 µs to 52 ms, the
	// timing wheel's level-0 and level-1 bands.
	eng = sim.NewEngine()
	wheelLeft := 0
	for i := 0; i < 4096; i++ {
		delay := 0.000160 * float64(1+i%326)
		var fn func()
		fn = func() {
			if wheelLeft--; wheelLeft <= 0 {
				eng.Halt()
			}
			eng.Post(delay, fn)
		}
		eng.Post(0.001, fn)
	}
	ns, _ = measure(r.ops(2_000_000), func(n int) { wheelLeft = n; eng.Run() })
	r.set("sim.wheel_ns", ns)

	// sim.rearm_ns: one reusable Timer re-armed forever (RTO, pacing).
	eng = sim.NewEngine()
	var tm sim.Timer
	ch = newChain(eng, func(c *chain) { eng.Rearm(&tm, 0.001, c.step) })
	ns, _ = measure(r.ops(2_000_000), ch.run)
	r.set("sim.rearm_ns", ns)

	// sim.pipe_ns: a delay line holding 40 000 entries; every delivery posts
	// its successor, so one op is one Pipe.Post plus one delivery.
	eng = sim.NewEngine()
	pipeLeft := 0
	var pipe *sim.Pipe
	pipe = eng.NewPipe(func(arg any) {
		if pipeLeft--; pipeLeft <= 0 {
			eng.Halt()
		}
		pipe.Post(0.5, arg)
	})
	token, enter := new(int), func(arg any) { pipe.Post(0.5, arg) }
	for i := 0; i < 40_000; i++ {
		eng.PostArg(float64(i)*0.5/40_000, enter, token)
	}
	ns, _ = measure(r.ops(4_000_000), func(n int) { pipeLeft = n; eng.Run() })
	r.set("sim.pipe_ns", ns)

	// sim.burst_ns: 64 events share every timestamp, the same-instant packet
	// train the burst dispatcher batches.
	eng = sim.NewEngine()
	burstLeft := 0
	noop := func() {}
	var tick func()
	tick = func() {
		if burstLeft -= 64; burstLeft <= 0 {
			eng.Halt()
		}
		for i := 0; i < 63; i++ {
			eng.Post(0.001, noop)
		}
		eng.Post(0.001, tick)
	}
	eng.Post(0.001, tick)
	ns, _ = measure(r.ops(4_000_000), func(n int) { burstLeft = n; eng.Run() })
	r.set("sim.burst_ns", ns)

	// sim.reset_us: Engine.Reset with 4096 timers pending across heap and
	// wheel — what every arena-reused trial pays before it starts.
	eng = sim.NewEngine()
	ns, _ = measureTimed(r.ops(300), func(n int) time.Duration {
		var total time.Duration
		for k := 0; k < n; k++ {
			for i := 0; i < 4096; i++ {
				eng.Post(0.000160*float64(1+i%326), noop)
			}
			eng.RunUntil(0.001)
			t0 := time.Now()
			eng.Reset(nil)
			total += time.Since(t0)
		}
		return total
	})
	r.set("sim.reset_us", ns/1e3)

	// sim.shard2_speedup: the benchmark-shaped 12-hop chain at shard ceiling
	// 1 over ceiling 2, the faster of two runs each.
	fastest := func(shards int) float64 {
		ts := new(exp.TrialScratch)
		best := 0.0
		for i := 0; i < 1+1/r.sz.ProbeDiv; i++ {
			t0 := time.Now()
			exp.RunWideChainTrial(ts, shards, r.o.seed)
			if d := time.Since(t0).Seconds(); i == 0 || d < best {
				best = d
			}
		}
		return best
	}
	r.set("sim.shard2_speedup", fastest(1)/fastest(2))
}

// lineRateFeed sends n packets into send at exactly a 1 Gbps link's
// serialization rate, so queues stay shallow, and runs the engine dry.
func lineRateFeed(eng *sim.Engine, pool *netem.PacketPool, send func(*netem.Packet)) func(n int) {
	left, seq := 0, int64(0)
	var feed func()
	feed = func() {
		if left <= 0 {
			return
		}
		left--
		p := pool.Get()
		p.Flow, p.Seq, p.Size = 0, seq, 1500
		seq++
		send(p)
		eng.Post(1500/netem.Mbps(1000), feed)
	}
	return func(n int) {
		left = n
		eng.Post(0, feed)
		eng.Run()
	}
}

func probeNetem(r *run) {
	// netem.link_fwd_ns: enqueue, serialize, deliver on one 1 Gbps link.
	eng, pool := sim.NewEngine(), &netem.PacketPool{}
	l := netem.NewLink(eng, netem.NewDropTail(64*netem.KB), netem.Mbps(1000), 0.0001, 0, nil)
	l.Pool = pool
	l.Sink = pool.Put
	ns, allocs := measure(r.ops(1_000_000), lineRateFeed(eng, pool, l.Send))
	r.set("netem.link_fwd_ns", ns)
	r.set("netem.link_fwd_allocs", allocs)

	// netem.deep_bdp_ns: a 500 ms link with an unbounded buffer, 41 000
	// packets in flight on its delay pipe.
	eng, pool = sim.NewEngine(), &netem.PacketPool{}
	l = netem.NewLink(eng, netem.NewDropTail(-1), netem.Mbps(1000), 0.5, 0, nil)
	l.Pool = pool
	l.Sink = pool.Put
	ns, _ = measure(r.ops(1_000_000), lineRateFeed(eng, pool, l.Send))
	r.set("netem.deep_bdp_ns", ns)

	// netem.topo3hop_ns: a routed path of an access delay and three links
	// through a general Topology.
	eng, pool = sim.NewEngine(), &netem.PacketPool{}
	topo := netem.NewTopology(eng)
	topo.UsePool(pool)
	nodes := []string{"A", "B", "C", "D"}
	for i := 0; i < 3; i++ {
		topo.AddLink(nodes[i]+nodes[i+1], nodes[i], nodes[i+1],
			netem.NewDropTail(64*netem.KB), netem.Mbps(1000), 0.0001, 0, nil)
	}
	topo.AddFlow(0,
		[]netem.HopSpec{netem.DelayHop(0.0001), netem.LinkHop("AB"), netem.LinkHop("BC"), netem.LinkHop("CD")},
		[]netem.HopSpec{netem.DelayHop(0.0001)},
		sim.NewSeeds(1), pool.Put, nil)
	ns, _ = measure(r.ops(500_000), lineRateFeed(eng, pool, topo.SendData))
	r.set("netem.topo3hop_ns", ns)

	// netem.codel_ns, netem.fq_ns: one enqueue and one dequeue per packet on
	// the AQMs fig17 uses, eight flows, a 16-packet standing queue.
	aqm := func(q netem.Queue) float64 {
		pool := &netem.PacketPool{}
		now, seq := 0.0, int64(0)
		put := func() {
			p := pool.Get()
			p.Flow, p.Seq, p.Size = int(seq%8), seq, 1500
			seq++
			if !q.Enqueue(p, now) {
				pool.Put(p)
			}
		}
		for i := 0; i < 16; i++ {
			put()
		}
		ns, _ := measure(r.ops(2_000_000), func(n int) {
			for i := 0; i < n; i++ {
				now += 1500 / netem.Mbps(1000)
				put()
				if p := q.Dequeue(now); p != nil {
					pool.Put(p)
				}
			}
		})
		return ns
	}
	r.set("netem.codel_ns", aqm(netem.NewCoDel(64*netem.KB)))
	r.set("netem.fq_ns", aqm(netem.NewFQCoDel(64*netem.KB)))
}

// fixedRate is a RateAlgo that never changes its mind, so a RateSender probe
// times the sender and receiver, not an algorithm. It halts the engine when
// its ACK budget is spent.
type fixedRate struct {
	eng  *sim.Engine
	rate float64
	left int
}

func (a *fixedRate) Name() string               { return "fixed-rate" }
func (a *fixedRate) Start(float64)              {}
func (a *fixedRate) Rate(float64) float64       { return a.rate }
func (a *fixedRate) OnSend(int64, int, float64) {}
func (a *fixedRate) OnLost(int64, float64)      {}
func (a *fixedRate) OnAck(int64, float64, float64) {
	if a.left--; a.left <= 0 {
		a.eng.Halt()
	}
}

// fixedWindow is fixedRate for the window family.
type fixedWindow struct {
	eng  *sim.Engine
	cwnd float64
	left int
}

func (a *fixedWindow) Name() string        { return "fixed-window" }
func (a *fixedWindow) OnDupAck()           {}
func (a *fixedWindow) OnLossEvent(float64) {}
func (a *fixedWindow) OnTimeout(float64)   {}
func (a *fixedWindow) Cwnd() float64       { return a.cwnd }
func (a *fixedWindow) OnAck(float64, float64, *cc.RTTEstimator) {
	if a.left--; a.left <= 0 {
		a.eng.Halt()
	}
}

func probeCC(r *run) {
	// backToBack wires a sender's data to the receiver and the receiver's
	// ACKs to the sender through PostArg alone: 5 ms each way, no netem.
	backToBack := func(eng *sim.Engine, onAck func(*netem.Packet)) (send func(*netem.Packet), recv *cc.Receiver) {
		pool := &netem.PacketPool{}
		recv = cc.NewReceiver(eng, 0)
		recv.Pool = pool
		toRecv := func(arg any) { recv.OnData(arg.(*netem.Packet)) }
		toSend := func(arg any) { onAck(arg.(*netem.Packet)) }
		recv.SendAck = func(p *netem.Packet) { eng.PostArg(0.005, toSend, p) }
		return func(p *netem.Packet) { eng.PostArg(0.005, toRecv, p) }, recv
	}

	eng := sim.NewEngine()
	rateAlgo := &fixedRate{eng: eng, rate: netem.Mbps(100)}
	var rs *cc.RateSender
	send, recv := backToBack(eng, func(p *netem.Packet) { rs.OnAck(p) })
	rs = cc.NewRateSender(eng, 0, rateAlgo, send)
	rs.Pool = recv.Pool
	rs.Start()
	ns, _ := measure(r.ops(1_000_000), func(n int) { rateAlgo.left = n; eng.Run() })
	r.set("cc.rate_pkt_ns", ns)

	eng = sim.NewEngine()
	winAlgo := &fixedWindow{eng: eng, cwnd: 64}
	var ws *cc.WindowSender
	send, recv = backToBack(eng, func(p *netem.Packet) { ws.OnAck(p) })
	ws = cc.NewWindowSender(eng, 0, winAlgo, send)
	ws.Pool = recv.Pool
	ws.Start()
	ns, _ = measure(r.ops(1_000_000), func(n int) { winAlgo.left = n; eng.Run() })
	r.set("cc.window_pkt_ns", ns)

	// One steady flow on a 100 Mbps / 30 ms dumbbell with a BDP of buffer:
	// the whole stack per packet, for PCC and for CUBIC.
	flowNS := func(proto string) float64 {
		ts := new(exp.TrialScratch)
		dur := float64(max(1, 20/r.sz.ProbeDiv))
		best := 0.0
		for b := 0; b <= probeBatches; b++ {
			runner := ts.Runner("bench-flow/"+proto, exp.PathSpec{RateMbps: 100, RTT: 0.03, BufBytes: 375 * netem.KB, Seed: r.o.seed})
			f := runner.AddFlow(exp.FlowSpec{Proto: proto})
			t0 := time.Now()
			runner.Run(dur)
			d := time.Since(t0)
			var c simCounters
			c.add(runner, []*exp.Flow{f})
			if ns := float64(d.Nanoseconds()) / float64(max(1, c.sent)); b == 1 || (b > 1 && ns < best) {
				best = ns // batch 0 is the warm-up
			}
		}
		return best
	}
	r.set("cc.pcc_flow_ns_per_pkt", flowNS("pcc"))
	r.set("tcp.cubic_flow_ns_per_pkt", flowNS("cubic"))
}

func probeCore(r *run) {
	// core.pkt_ns: Rate, OnSend and, one RTT later, OnAck, on a synthetic
	// clock at the rate PCC asks for — the monitor and the controller alone,
	// no engine and no network. A 100 Mbps bottleneck is modelled by
	// acknowledging only capacity/rate of the packets sent above capacity, so
	// the controller settles instead of doubling for ever.
	const rtt = 0.03
	capacity := netem.Mbps(100)
	p := core.New(core.DefaultConfig(rtt), rand.New(rand.NewSource(r.o.seed)))
	p.Start(0)
	type sent struct {
		seq int64
		at  float64
	}
	ring := make([]sent, 1<<14)
	head, tail := 0, 0
	now, seq, credit := 0.0, int64(0), 0.0
	ns, allocs := measure(r.ops(2_000_000), func(n int) {
		for i := 0; i < n; i++ {
			rate := p.Rate(now)
			now += 1500 / rate
			p.OnSend(seq, 1500, now)
			if credit += min(1, capacity/rate); credit >= 1 {
				credit--
				ring[head&(len(ring)-1)] = sent{seq, now}
				head++
			}
			seq++
			for tail < head && (now-ring[tail&(len(ring)-1)].at >= rtt || head-tail == len(ring)) {
				p.OnAck(ring[tail&(len(ring)-1)].seq, rtt, now)
				tail++
			}
		}
	})
	r.set("core.pkt_ns", ns)
	r.set("core.allocs_per_pkt", allocs)
}
