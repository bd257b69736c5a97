package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"pcc/internal/exp"
	"pcc/internal/netem"
	"pcc/internal/topogen"
)

// wanShape is the trial-invariant part of a wan_trial: the generated graph,
// the spec built from it and every flow's routed hop chains. It mirrors what
// exp.NewWANShape builds, step for step, from the exported pieces, so the
// benchmark holds the Runner and can read its counters; the traced run
// asserts the two constructions give the same aggregate goodput.
type wanShape struct {
	spec  exp.TopologySpec
	flows []exp.FlowSpec
	key   string
}

func buildWANShape(r *run, parent int, nodes, flows int, dur float64, seed int64) *wanShape {
	spr := 1
	if nodes > 48 {
		spr = (nodes - 12 + 35) / 36
	}
	sp := r.tr.begin("topogen.TransitStub", "topogen", parent, 0)
	g := topogen.TransitStub(topogen.TransitStubSpec{
		Transits: 4, TransitRouters: 3, StubsPerRouter: spr, StubRouters: 3,
		TransitRateMbps: 400, StubRateMbps: 40, Seed: 1,
	})
	r.tr.end(sp)
	var stubs []string
	for _, name := range g.Nodes() {
		if name[0] == 's' {
			stubs = append(stubs, name)
		}
	}
	sp = r.tr.begin("topogen.Router.PathLinks", "topogen", parent, 0)
	router := topogen.NewRouter(g)
	rng := rand.New(rand.NewSource(seed))
	specs := make([]exp.FlowSpec, flows)
	for k := range specs {
		src := stubs[rng.Intn(len(stubs))]
		dst := stubs[rng.Intn(len(stubs))]
		for dst == src {
			dst = stubs[rng.Intn(len(stubs))]
		}
		access := 0.0005 + 0.002*rng.Float64()
		fwd := []netem.HopSpec{netem.DelayHop(access)}
		for _, ln := range router.PathLinks(src, dst) {
			fwd = append(fwd, netem.LinkHop(ln))
		}
		var rev []netem.HopSpec
		for _, ln := range router.PathLinks(dst, src) {
			rev = append(rev, netem.LinkHop(ln))
		}
		rev = append(rev, netem.DelayHop(access))
		specs[k] = exp.FlowSpec{Proto: "pcc", FwdRoute: fwd, RevRoute: rev,
			StartAt: 0.2 * dur * float64(k) / float64(flows)}
	}
	r.tr.end(sp)
	sp = r.tr.begin("exp.GraphSpec", "exp", parent, 0)
	spec := exp.GraphSpec(g, 0, 1)
	r.tr.end(sp)
	spec.Seed = seed
	spec.Faults = &netem.FaultSchedule{Flaps: []netem.FlapSpec{{
		Link: "x0", FirstDownAt: 0.3 * dur, DownDur: 0.25, UpDur: 1.0, Jitter: 0.3, Until: 0.7 * dur,
	}}}
	return &wanShape{spec: spec, flows: specs, key: fmt.Sprintf("bench-wan/%d/%d", g.NumNodes(), flows)}
}

// trial runs one simulation of the shape on ts — a respec in place when ts
// already holds the runner — and returns the runner and its flows.
func (sh *wanShape) trial(r *run, parent, rep int, ts *exp.TrialScratch, dur float64) (*exp.Runner, []*exp.Flow) {
	sp := r.tr.begin("TrialScratch.TopologyRunner", "exp", parent, rep)
	runner := ts.TopologyRunner(sh.key, sh.spec)
	r.tr.end(sp)
	sp = r.tr.begin("Runner.AddFlow", "exp", parent, rep)
	flows := make([]*exp.Flow, len(sh.flows))
	for k := range sh.flows {
		flows[k] = runner.AddFlow(sh.flows[k])
	}
	r.tr.end(sp)
	sp = r.tr.begin("Runner.Run", "sim", parent, rep)
	runner.Run(dur)
	r.tr.end(sp)
	return runner, flows
}

// simCounters are the counts the simulation packages export for one run.
type simCounters struct {
	events, hops, queueDrops, wireLost, faultDropped int64
	sent, rtx                                        int64
	decisions, reversions, inconclusive              int64
}

// add reads a finished runner's counters without allocating.
func (c *simCounters) add(runner *exp.Runner, flows []*exp.Flow) {
	for _, eng := range runner.Engines {
		c.events += int64(eng.Processed())
	}
	for i := 0; i < runner.Topo.NumLinks(); i++ {
		l := runner.Topo.LinkAt(i)
		c.hops += l.Delivered()
		c.queueDrops += l.Queue.Dropped()
		c.wireLost += l.WireLost()
		c.faultDropped += l.FaultDropped()
	}
	for _, f := range flows {
		switch {
		case f.RS != nil:
			c.sent += f.RS.Sent()
			c.rtx += f.RS.Retransmitted()
		case f.WS != nil:
			c.sent += f.WS.Sent()
			c.rtx += f.WS.Retransmitted()
		}
		if f.PCC != nil {
			ctl := f.PCC.Controller()
			c.decisions += ctl.Decisions()
			c.reversions += ctl.Reversions()
			c.inconclusive += ctl.Inconclusive()
		}
	}
}

// record stores the counters, and on a traced run the per-layer metrics
// they give, for a workload whose rounds took wall seconds altogether.
func (c *simCounters) record(r *run, wall float64) {
	r.count("sim.events", c.events)
	r.count("netem.pkt_hops", c.hops)
	r.count("netem.queue_drops", c.queueDrops)
	r.count("netem.wire_lost", c.wireLost)
	r.count("netem.fault_dropped", c.faultDropped)
	r.count("cc.sent_pkts", c.sent)
	r.count("cc.rtx_pkts", c.rtx)
	r.count("core.decisions", c.decisions)
	r.count("core.reversions", c.reversions)
	r.count("core.inconclusive", c.inconclusive)
	if !r.o.trace {
		return
	}
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("sim.events", float64(c.events))
	r.set("sim.events_per_s", float64(c.events)/wall)
	r.set("netem.pkt_hops", float64(c.hops))
	r.set("netem.queue_drops", float64(c.queueDrops))
	r.set("netem.wire_lost", float64(c.wireLost))
	r.set("netem.fault_dropped", float64(c.faultDropped))
	r.set("cc.sent_pkts", float64(c.sent))
	r.set("cc.rtx_frac", frac(c.rtx, c.sent))
	r.set("core.decisions", float64(c.decisions))
	r.set("core.reversion_frac", frac(c.reversions, c.decisions))
	r.set("core.inconclusive_frac", frac(c.inconclusive, c.decisions))
}

// wanTrial is one warm generated WAN: a 120-node transit-stub graph, 200
// routed PCC flows with staggered starts, the x0 backbone link flapping
// mid-run, one engine, one worker. Every round is the same trial on the same
// seed, re-specced in place, so rounds repeat exactly and allocate nothing;
// three quarters of the CPU is the scheduler and multi-hop forwarding.
//
// Set-up is graph generation, routing, the cold runner build and a short
// warm-up run. Operations are link deliveries (packet hops); a round is one
// trial, and nine identical trials support no percentile above the median,
// so op_ms_mid is their mid-mean and op_ms_tail their median.
func wanTrial(r *run) {
	sz := r.sz
	var sh *wanShape
	var ts *exp.TrialScratch
	for i := 0; i < sz.SetupReps; i++ {
		r.setup(func() {
			root := r.tr.begin("setup", "bench", -1, i)
			sh = buildWANShape(r, root, sz.WanNodes, sz.WanFlows, sz.WanDur, r.o.seed)
			ts = new(exp.TrialScratch)
			sh.trial(r, root, i, ts, sz.WanDur/5)
			r.tr.end(root)
		})
	}

	var first simCounters
	var firstGoodput, hopsPerS, trialMS []float64
	for round := 0; round < sz.WanRounds; round++ {
		var runner *exp.Runner
		var flows []*exp.Flow
		r.round(func() {
			root := r.tr.begin("wan_trial", "bench", -1, round)
			runner, flows = sh.trial(r, root, round, ts, sz.WanDur)
			r.tr.end(root)
		})
		wall := r.walls[len(r.walls)-1]
		var c simCounters
		c.add(runner, flows)
		hopsPerS = append(hopsPerS, float64(c.hops)/wall)
		trialMS = append(trialMS, wall*1000)

		conserved, stats := 0, runner.Topo.Stats()
		for _, st := range stats {
			if st.Conserved() {
				conserved++
			}
		}
		goodput := make([]float64, len(flows))
		for k, f := range flows {
			goodput[k] = f.GoodputMbps(sz.WanDur)
		}
		r.attempt(1, 0, "trials")
		r.check(conserved == len(stats), "round %d: %d of %d links conserve bytes", round+1, conserved, len(stats))
		if round == 0 {
			first, firstGoodput = c, goodput
			r.set("netem.conserved_frac", float64(conserved)/float64(len(stats)))
			r.digest("goodput", []byte(fmt.Sprint(goodput)))
		} else {
			r.check(c == first && fmt.Sprint(goodput) == fmt.Sprint(firstGoodput),
				"round %d does not repeat round 1: counters %+v vs %+v", round+1, c, first)
		}
	}
	first.record(r, slices.Min(r.walls))

	if r.o.trace {
		// The mirrored construction must be the one exp.RunWAN uses.
		want := exp.RunWANTrial(new(exp.TrialScratch),
			exp.NewWANShape(sz.WanNodes, sz.WanFlows, 1, sz.WanDur, r.o.seed), sz.WanDur, r.o.seed)
		r.check(math.Abs(sum(firstGoodput)-want) <= 1e-9*math.Abs(want),
			"aggregate goodput %.6f Mbps differs from exp.RunWANTrial's %.6f", sum(firstGoodput), want)
	}

	sorted := sortedCopy(trialMS)
	r.set("ops_per_s", slices.Max(hopsPerS), hopsPerS...)
	r.set("op_ms_mid", midMean(sorted), trialMS...)
	r.set("op_ms_tail", medianSorted(sorted))
}
