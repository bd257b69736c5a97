package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"pcc/internal/core"
	"pcc/internal/exp"
	"pcc/internal/serve"
	"pcc/internal/topogen"
	"pcc/internal/transport"
)

func probeExp(r *run) {
	// exp.pool_ns_per_trial: the pool's dispatch alone, an empty trial.
	ns, _ := measure(r.ops(1_000_000), func(n int) {
		exp.RunTrialsScratch(n, func(int, *exp.TrialScratch) {})
	})
	r.set("exp.pool_ns_per_trial", ns)

	// The trial_churn trial taken apart on one goroutine: the arena respec
	// (TrialScratch.Runner and four AddFlow) and the run, with a recurring
	// seed and with a seed the arena has never seen.
	ts := new(exp.TrialScratch)
	var flows [churnFlows]*exp.Flow
	trial := 0
	respec := func(seedOf func(i int) int64) func(n int) time.Duration {
		return func(n int) time.Duration {
			var total time.Duration
			for k := 0; k < n; k++ {
				proto, _ := churnPoint(r.o.seed, trial)
				seed := seedOf(trial)
				trial++
				t0 := time.Now()
				runner := churnRespec(ts, "bench-probe/", proto, seed, flows[:])
				total += time.Since(t0)
				runner.Run(60)
			}
			return total
		}
	}
	warm := func(i int) int64 { _, s := churnPoint(r.o.seed, i); return s }
	fresh := func(i int) int64 { return r.o.seed + 1_000_003*int64(i+1) }
	ns, _ = measureTimed(r.ops(20_000), respec(warm))
	r.set("exp.respec_us_warm_seed", ns/1e3)
	// Every never-seen seed leaves a snapshot behind in the arena's sources,
	// so this count stays small.
	ns, _ = measureTimed(r.ops(2_000), respec(fresh))
	r.set("exp.respec_us_new_seed", ns/1e3)

	// The run alone is timed; the allocations are those of the whole warm
	// trial, respec and run.
	ns, allocs := measureTimed(r.ops(20_000), func(n int) time.Duration {
		var total time.Duration
		for k := 0; k < n; k++ {
			proto, seed := churnPoint(r.o.seed, k)
			runner := churnRespec(ts, "bench-probe/", proto, seed, flows[:])
			t0 := time.Now()
			runner.Run(60)
			total += time.Since(t0)
		}
		return total
	})
	r.set("exp.run_us_per_trial", ns/1e3)
	r.set("exp.allocs_per_warm_trial", allocs)

	// exp.cold_build_us: the first build of a key, on an empty arena.
	ns, _ = measure(r.ops(2_000), func(n int) {
		for k := 0; k < n; k++ {
			proto, seed := churnPoint(r.o.seed, k)
			churnRespec(new(exp.TrialScratch), "bench-probe/", proto, seed, flows[:])
		}
	})
	r.set("exp.cold_build_us", ns/1e3)

	// exp.report_us: Report.String() on a 24-row table, fig10's shape.
	rep := &exp.Report{ID: "probe", Title: "24-row report", Header: []string{"senders", "data_KB", "pcc_Mbps", "tcp_Mbps", "pcc/tcp"}}
	for i := 0; i < 24; i++ {
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(2 + i), fmt.Sprint(64 << (i % 3)),
			fmt.Sprintf("%.1f", 612.5+float64(i)), fmt.Sprintf("%.1f", 81.3+float64(i)), fmt.Sprintf("%.2f", 7.53)})
	}
	rep.Notes = []string{"paper: with >=10 senders PCC sustains 60-80% of max goodput, 7-8x TCP"}
	size := 0
	ns, _ = measure(r.ops(5_000), func(n int) {
		for k := 0; k < n; k++ {
			size += len(rep.String())
		}
	})
	r.set("exp.report_us", ns/1e3)

	// exp.pool_speedup_w2: a trial_churn slice at one worker over two.
	slice := r.ops(30_000)
	sweepNS := func(workers int) float64 {
		exp.SetWorkers(workers)
		defer exp.SetWorkers(0)
		ns, _ := measure(slice, func(n int) { churnSweep(n, "bench-probe-pool/", r.o.seed, nil) })
		return ns
	}
	r.set("exp.pool_speedup_w2", sweepNS(1)/sweepNS(2))
}

func probeTopogen(r *run) {
	sz := r.sz
	spec := topogen.TransitStubSpec{Transits: 4, TransitRouters: 3, StubsPerRouter: (sz.WanNodes - 12 + 35) / 36,
		StubRouters: 3, TransitRateMbps: 400, StubRateMbps: 40, Seed: 1}
	var g *topogen.Graph
	ns, _ := measure(r.ops(200), func(n int) {
		for k := 0; k < n; k++ {
			g = topogen.TransitStub(spec)
		}
	})
	r.set("topogen.transit_stub_ms", ns/1e6)

	// topogen.route_us_per_flow: a fresh Router and one forward and one
	// reverse PathLinks per flow, as the WAN shape routes them.
	nodes := g.Nodes()
	rng := rand.New(rand.NewSource(r.o.seed))
	pairs := make([][2]string, sz.WanFlows)
	for k := range pairs {
		pairs[k] = [2]string{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
	}
	hops := 0
	ns, _ = measure(r.ops(100), func(n int) {
		for k := 0; k < n; k++ {
			router := topogen.NewRouter(g)
			for _, p := range pairs {
				hops += len(router.PathLinks(p[0], p[1])) + len(router.PathLinks(p[1], p[0]))
			}
		}
	})
	r.set("topogen.route_us_per_flow", ns/1e3/float64(len(pairs)))

	ns, _ = measure(r.ops(100), func(n int) {
		for k := 0; k < n; k++ {
			exp.NewWANShape(sz.WanNodes, sz.WanFlows, 1, sz.WanDur, r.o.seed)
		}
	})
	r.set("topogen.wan_shape_ms", ns/1e6)
}

func probeServe(r *run) {
	dir, err := r.scratchDir("serve-probe")
	if err != nil {
		r.check(false, "serve probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cache, err := serve.NewCache(dir)
	if err != nil {
		r.check(false, "serve probe: %v", err)
		return
	}
	// Direct Cache calls on a 4 KB payload: write (temp file, fsync, rename,
	// directory fsync), verified read, and a miss.
	payload := bytes.Repeat([]byte("pcc-report-line "), 256)
	key := func(i int) serve.Key {
		return serve.Key{Experiment: "probe", Seed: int64(i), Scale: 0.1, Code: benchCodeVersion}
	}
	const keys = 64
	failed := 0
	ns, _ := measure(r.ops(400), func(n int) {
		for k := 0; k < n; k++ {
			if cache.Put(key(k%keys), payload) != nil {
				failed++
			}
		}
	})
	r.set("serve.cache_put_us", ns/1e3)
	for k := 0; k < keys; k++ {
		if cache.Put(key(k), payload) != nil {
			failed++
		}
	}
	ns, _ = measure(r.ops(10_000), func(n int) {
		for k := 0; k < n; k++ {
			if b, ok := cache.Get(key(k % keys)); !ok || len(b) != len(payload) {
				failed++
			}
		}
	})
	r.set("serve.cache_get_us", ns/1e3)
	ns, _ = measure(r.ops(20_000), func(n int) {
		for k := 0; k < n; k++ {
			if _, ok := cache.Get(key(keys + k)); ok {
				failed++
			}
		}
	})
	r.set("serve.cache_miss_us", ns/1e3)
	r.check(failed == 0, "serve probe: %d cache calls gave the wrong answer", failed)

	sched := serve.NewScheduler(1, 64)
	ns, _ = measure(r.ops(5_000_000), func(n int) {
		for k := 0; k < n; k++ {
			if sched.Reserve(8) {
				sched.Release(8)
			}
		}
	})
	sched.Close()
	r.set("serve.sched_reserve_ns", ns)

	// serve.ttfl_ms, serve.hit_us_per_unit: the request path in miniature, on
	// a server of its own — one cold sweep of two light experiments timed to
	// its first line, then cached replays of it.
	srv, err := startSweepServer(r)
	if err != nil {
		r.check(false, "serve probe: %v", err)
		return
	}
	defer srv.stop()
	exps := []string{"theory", "fig10"}
	client, url := srv.http.Client(), srv.http.URL
	ttfl := make([]float64, 0, probeBatches)
	for k := 0; k < probeBatches; k++ {
		rep, err := postSweep(client, url, exps, 0.02, r.o.seed+int64(k))
		if err != nil || !rep.ok(len(exps)) {
			r.check(false, "serve probe: cold sweep failed: status %d, err %v", rep.status, err)
			return
		}
		ttfl = append(ttfl, rep.firstLine.Seconds()*1000)
	}
	r.set("serve.ttfl_ms", median(ttfl), ttfl...)
	bad := 0
	ns, _ = measure(r.ops(2_000), func(n int) {
		for k := 0; k < n; k++ {
			if rep, err := postSweep(client, url, exps, 0.02, r.o.seed); err != nil || !rep.ok(len(exps)) {
				bad++
			}
		}
	})
	r.check(bad == 0, "serve probe: %d cached sweeps failed", bad)
	r.set("serve.hit_us_per_unit", ns/1e3/float64(len(exps)))
}

// probeTransport moves bytes over real UDP on 127.0.0.1 with the repository's
// sender and receiver. It is informational: the sender paces with one
// time.Sleep per packet, and in a sandbox whose 100 µs sleep takes a
// millisecond nothing here repeats within a tenth. The sleep probe is
// reported beside it for that reason.
func probeTransport(r *run) {
	r.set("transport.sleep_100us_p50_us", sleepProbeUS(max(20, 200/r.sz.ProbeDiv)))

	size := max(64<<10, (1<<20)/r.sz.ProbeDiv)
	data := make([]byte, size)
	rand.New(rand.NewSource(r.o.seed)).Read(data)
	var mbps, usPerPkt, rtxFrac []float64
	for k := 0; k < 3; k++ {
		m, us, rtx, err := loopbackTransfer(data)
		if err != nil {
			r.check(false, "transport probe: %v", err)
			break
		}
		mbps, usPerPkt, rtxFrac = append(mbps, m), append(usPerPkt, us), append(rtxFrac, rtx)
	}
	if len(mbps) == 0 {
		mbps, usPerPkt, rtxFrac = []float64{0}, []float64{0}, []float64{0}
	}
	r.set("transport.loopback_mbps", median(mbps), mbps...)
	r.set("transport.us_per_pkt", median(usPerPkt), usPerPkt...)
	r.set("transport.rtx_frac", median(rtxFrac), rtxFrac...)
}

// loopbackTransfer sends data once over loopback UDP and verifies the bytes
// that arrive.
func loopbackTransfer(data []byte) (mbps, usPerPkt, rtxFrac float64, err error) {
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	recvConn, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return 0, 0, 0, err
	}
	defer recvConn.Close()
	sendConn, err := net.ListenUDP("udp", loopback)
	if err != nil {
		return 0, 0, 0, err
	}
	defer sendConn.Close()

	var out bytes.Buffer
	recv := transport.NewReceiver(recvConn, &out)
	recvErr := make(chan error, 1)
	go func() { recvErr <- recv.Run() }()

	cfg := core.DefaultConfig(0.002)
	cfg.InitialRate = 5e6
	sender, err := transport.NewSender(sendConn, recvConn.LocalAddr().(*net.UDPAddr), cfg, bytes.NewReader(data))
	if err != nil {
		return 0, 0, 0, err
	}
	sendErr := make(chan error, 1)
	t0 := time.Now()
	go func() { sendErr <- sender.Run() }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	select {
	case <-sender.Done():
	case err := <-sendErr:
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sender: %w", err)
		}
	case <-ctx.Done():
		return 0, 0, 0, fmt.Errorf("transfer of %d bytes did not finish in 20 s", len(data))
	}
	elapsed := time.Since(t0)
	select {
	case <-recv.Done():
	case <-ctx.Done():
		return 0, 0, 0, fmt.Errorf("receiver did not see the end of the flow")
	}
	if !bytes.Equal(out.Bytes(), data) {
		return 0, 0, 0, fmt.Errorf("received %d bytes that differ from the %d sent", out.Len(), len(data))
	}
	sent, rtx := sender.Stats()
	return float64(len(data)) * 8 / 1e6 / elapsed.Seconds(),
		elapsed.Seconds() * 1e6 / float64(max(1, sent)),
		float64(rtx) / float64(max(1, sent)), nil
}

// probeTrace measures what recording one span costs.
func probeTrace(r *run) {
	t := newTracer("probe")
	ns, _ := measure(r.ops(200_000), func(n int) {
		t.spans = t.spans[:0]
		for k := 0; k < n; k++ {
			t.end(t.begin("probe", "bench", -1, 0))
		}
	})
	r.set("trace.span_ns", ns)
}
