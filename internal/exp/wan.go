package exp

import (
	"context"
	"fmt"
	"math/rand"

	"pcc/internal/metrics"
	"pcc/internal/netem"
	"pcc/internal/topogen"
)

// RunWAN ("wan") is the internet-scale scenario of ROADMAP item 1: instead
// of a hand-written hop chain, the topology is a generated GT-ITM-style
// transit-stub WAN (internal/topogen) — four backbone domains in a ring,
// stub networks hanging off every transit router — with hundreds of flows
// routed over deterministic shortest paths and a flap schedule on the x0
// backbone link active mid-run. It asks the paper's §2.2–§2.3 question at
// scale: does utility-driven control keep aggregate goodput and fairness
// when thousands of flows share a real WAN graph and the backbone fails
// under them? Per-link byte conservation is audited over every generated
// link, and reports stay byte-identical at any worker count
// (determinism_test.go asserts this). The node and flow targets scale with
// -scale and can be pinned per call by ctx's Config (pccbench's
// -nodes/-flows).
func RunWAN(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(25, 5, scale)
	nodeTarget, flowTarget := configOf(ctx).Nodes, configOf(ctx).Flows
	if nodeTarget <= 0 {
		nodeTarget = int(float64(500*scale) + 0.5)
	}
	if flowTarget <= 0 {
		flowTarget = int(float64(5000*scale) + 0.5)
		if flowTarget < 40 {
			flowTarget = 40
		}
	}
	sh := NewWANShape(nodeTarget, flowTarget, 1, dur, seed)
	protos := []string{"pcc", "cubic"}

	rep := &Report{
		ID: "wan",
		Title: fmt.Sprintf("generated transit-stub WAN (%d nodes, %d links, %d flows, backbone flaps on x0)",
			sh.graph.NumNodes(), sh.graph.NumLinks(), len(sh.flows)),
		Header: []string{"proto", "agg_Mbps", "mean_Mbps", "p10_Mbps", "jain", "conserved"},
	}
	rows, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) trialRow {
		proto := protos[i]
		r, goodput := wanTrial(ts, sh, proto, dur, TrialSeed(seed, i))
		sum := 0.0
		for _, g := range goodput {
			sum += g
		}
		sorted := metrics.SortInto(ts.f64, goodput)
		p10 := metrics.PercentileSorted(sorted, 10)
		ts.f64 = sorted
		stats := r.Topo.Stats()
		conserved := 0
		for i := range stats {
			if stats[i].Conserved() {
				conserved++
			}
		}
		tr := trialRow{row: []string{
			proto,
			f1(sum), f2(metrics.Mean(goodput)), f2(p10),
			f3(metrics.JainIndex(goodput)),
			fmt.Sprintf("%d/%d", conserved, len(stats)),
		}}
		if proto == "pcc" {
			tr.notes = r.FaultStatsNotes()
			log := r.FaultLog()
			tr.notes = append(tr.notes,
				fmt.Sprintf("backbone x0 flapped: %d down / %d up transitions", log.Downs, log.Ups))
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	rep.addRows(rows)
	rep.Notes = append(rep.Notes,
		"flows pair random stub routers over shortest paths; agg/mean/p10 are whole-run goodputs from each flow's staggered start",
		"conserved: links whose byte ledger balances (offered = delivered + lost + dropped + queued + in-flight), audited per generated link")
	return rep, nil
}

// wanFlow is one precomputed flow of a WANShape: routed hop chains plus a
// staggered start.
type wanFlow struct {
	fwd, rev []netem.HopSpec
	startAt  float64
}

// WANShape is the precomputed, trial-invariant part of a wan run: the
// generated graph, the TopologySpec built from it (links and the x0 flap
// schedule, shared read-only), and every flow's routed hop chains. Building
// it once per RunWAN keeps the topogen Router's single-threaded route cache
// out of the trial fan-out and lets warm arena trials respec against an
// identical link slice.
type WANShape struct {
	graph *topogen.Graph
	base  TopologySpec
	flows []wanFlow
}

// NewWANShape generates the transit-stub WAN for the given node target,
// routes flowTarget stub-to-stub flows over it, and attaches the backbone
// flap schedule sized to dur. The generator rounds nodeTarget up to the
// nearest structurally valid size (12 transit routers + 36 stub routers per
// stubs-per-router step). Pair selection and per-flow access delays draw
// from seed only, so every proto variant runs the identical workload. shards
// is ignored; pinned by bench/ until ROADMAP item 1's [benchmark] PR.
func NewWANShape(nodeTarget, flowTarget, shards int, dur float64, seed int64) *WANShape {
	spr := 1
	if nodeTarget > 48 {
		spr = (nodeTarget - 12 + 35) / 36
	}
	// Rates are deliberately modest (a 400 Mbps backbone over 40 Mbps stub
	// access): the scenario's subject is many flows sharing a real graph,
	// not raw bandwidth, and event count scales with bytes moved.
	g := topogen.TransitStub(topogen.TransitStubSpec{
		Transits:        4,
		TransitRouters:  3,
		StubsPerRouter:  spr,
		StubRouters:     3,
		TransitRateMbps: 400,
		StubRateMbps:    40,
		Seed:            1,
	})
	var stubs []string
	for _, name := range g.Nodes() {
		if name[0] == 's' {
			stubs = append(stubs, name)
		}
	}
	router := topogen.NewRouter(g)
	rng := rand.New(rand.NewSource(seed))
	flows := make([]wanFlow, flowTarget)
	for k := range flows {
		src := stubs[rng.Intn(len(stubs))]
		dst := stubs[rng.Intn(len(stubs))]
		for dst == src {
			dst = stubs[rng.Intn(len(stubs))]
		}
		// Last-mile delay outside the shared graph (fwd head, rev tail).
		access := 0.0005 + float64(0.002*rng.Float64())
		fwdLinks := router.PathLinks(src, dst)
		revLinks := router.PathLinks(dst, src)
		fwd := make([]netem.HopSpec, 0, len(fwdLinks)+1)
		fwd = append(fwd, netem.DelayHop(access))
		for _, ln := range fwdLinks {
			fwd = append(fwd, netem.LinkHop(ln))
		}
		rev := make([]netem.HopSpec, 0, len(revLinks)+1)
		for _, ln := range revLinks {
			rev = append(rev, netem.LinkHop(ln))
		}
		rev = append(rev, netem.DelayHop(access))
		flows[k] = wanFlow{
			fwd: fwd, rev: rev,
			startAt: 0.2 * dur * float64(k) / float64(flowTarget),
		}
	}
	base := GraphSpec(g, 0, 1)
	base.Faults = &netem.FaultSchedule{Flaps: []netem.FlapSpec{{
		Link:        "x0",
		FirstDownAt: 0.3 * dur,
		DownDur:     0.25,
		UpDur:       1.0,
		Jitter:      0.3,
		Until:       0.7 * dur,
	}}}
	return &WANShape{graph: g, base: base, flows: flows}
}

// NumNodes returns the generated node count (after rounding the target).
func (sh *WANShape) NumNodes() int { return sh.graph.NumNodes() }

// wanTrial runs one wan simulation on a precomputed shape: respec the
// topology (links and flap schedule are shared, so a warm arena runner
// rewinds in place), add every routed flow with its staggered start, run to
// dur, and return the per-flow whole-run goodputs in flow order.
func wanTrial(ts *TrialScratch, sh *WANShape, proto string, dur float64, seed int64) (*Runner, []float64) {
	ts.Stamp("wan", proto, seed)
	spec := sh.base
	spec.Seed = seed
	key := fmt.Sprintf("wan/%d/%d/%s", sh.graph.NumNodes(), len(sh.flows), proto)
	r := ts.TopologyRunner(key, spec)
	flows := make([]*Flow, len(sh.flows))
	for k := range sh.flows {
		wf := &sh.flows[k]
		flows[k] = r.AddFlow(FlowSpec{
			Proto: proto, FwdRoute: wf.fwd, RevRoute: wf.rev, StartAt: wf.startAt,
		})
	}
	r.Run(dur)
	goodput := make([]float64, len(flows))
	for k, f := range flows {
		goodput[k] = f.GoodputMbps(dur)
	}
	return r, goodput
}

// RunWANTrial runs one benchmark-shaped wan trial on a prebuilt shape and
// returns the aggregate goodput in Mbps. BenchmarkWAN calls it so the
// graph generation and routing measured by BenchmarkWANBuild stay out of
// the simulation loop.
func RunWANTrial(ts *TrialScratch, sh *WANShape, dur float64, seed int64) float64 {
	_, goodput := wanTrial(ts, sh, "pcc", dur, seed)
	sum := 0.0
	for _, g := range goodput {
		sum += g
	}
	return sum
}
