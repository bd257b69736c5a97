// Package exp contains one driver per table/figure of the paper's
// evaluation (§4), plus the shared harness that assembles simulated
// topologies, flows and protocols. Each driver returns a Report that
// cmd/pccbench prints and cmd/pccserve streams; EXPERIMENTS.md records
// paper-vs-measured for each.
package exp

import (
	"fmt"
	"math/rand"
	"slices"

	"pcc/internal/baseline"
	"pcc/internal/cc"
	"pcc/internal/core"
	"pcc/internal/netem"
	"pcc/internal/sim"
	"pcc/internal/tcp"
	"pcc/internal/topogen"
)

// LinkSpec describes one directed link of a TopologySpec.
type LinkSpec struct {
	// Name registers the link for route references.
	Name string
	// From/To are the node names the link joins.
	From, To string
	// RateMbps is the link capacity in Mbps.
	RateMbps float64
	// Delay is the link's one-way propagation delay, seconds.
	Delay float64
	// Loss is the link's Bernoulli wire-loss probability.
	Loss float64
	// BufBytes is the link queue capacity in bytes.
	BufBytes int
	// QueueKind selects the AQM, as in PathSpec ("" = droptail).
	QueueKind string
}

// TopologySpec describes the network a runner is built over: any directed
// link graph, from the one-link dumbbell a PathSpec translates into up to
// multiple bottlenecks in series, congested ACK paths and cross-traffic on
// interior links. Flows carry explicit routes in their FlowSpec
// (FwdRoute/RevRoute); only on a dumbbell may they leave them out.
//
// Specs need not be hand-written: GraphSpec converts a topogen-generated
// graph (the transit-stub WAN) into a TopologySpec carrying the
// generator's links, and topogen.Router computes the matching
// deterministic FwdRoute/RevRoute hop chains — the construction path of the
// internet-scale experiments.
type TopologySpec struct {
	// Links are created in order; each draws one RNG stream from the root
	// seed for its wire-loss process, so adding a link never perturbs the
	// draws earlier links see.
	Links []LinkSpec
	// Seed roots all randomness for the run.
	Seed int64
	// Faults, when non-nil and non-empty, injects timed hard faults (link
	// down/up flaps, partitions) into the trial as plain engine events — a
	// flap re-arming itself phase by phase, its jitter drawn from one runner
	// RNG stream — so faults compose with arenas without perturbing
	// determinism.
	Faults *netem.FaultSchedule
}

// PathSpec describes the shared bottleneck of a dumbbell: shorthand for the
// one-link TopologySpec most of the paper's figures run on (see oneLink).
type PathSpec struct {
	// RateMbps is the bottleneck capacity in Mbps.
	RateMbps float64
	// RTT is the default two-way propagation delay for flows, seconds.
	RTT float64
	// Loss is the forward-path Bernoulli loss probability.
	Loss float64
	// BufBytes is the bottleneck queue capacity in bytes (ignored for FQ
	// kinds, which use it per flow).
	BufBytes int
	// QueueKind selects the AQM: "droptail" (default), "codel", "fq",
	// "fqcodel".
	QueueKind string
	// Seed roots all randomness for the run.
	Seed int64
}

// FlowSpec describes one flow in a run.
type FlowSpec struct {
	// Proto is "pcc", "sabul", "pcp", "pacing" (paced New Reno), or any
	// internal/tcp variant name.
	Proto string
	// RTT overrides the path RTT for this flow (0 = path default).
	RTT float64
	// RevLoss is ACK-path Bernoulli loss of a route-less dumbbell flow (an
	// explicit route expresses ACK loss with netem.LossyDelayHop).
	RevLoss float64
	// StartAt is the flow's start time, seconds.
	StartAt float64
	// FlowKB limits the flow to this many kilobytes (0 = unbounded).
	FlowKB int
	// PacketSize is the flow's data packet wire size in bytes (0 = cc.MSS,
	// 1500). Flows on one topology may mix sizes freely — interactive mice
	// at 512 B sharing a bottleneck with 9000-byte jumbo bulk — and every
	// layer (pacing clock, link serialization, queue occupancy, monitor
	// byte accounting) uses the true per-packet size.
	PacketSize int
	// Bucket enables per-bucket goodput series of this width, seconds.
	Bucket float64
	// PCCConfig overrides the default PCC configuration (pcc only).
	PCCConfig *core.Config
	// FwdRoute/RevRoute are the flow's explicit routes (hop chains over
	// named links and delay segments). Both must be set together. On a
	// dumbbell runner they may both be empty: the flow then crosses the
	// bottleneck behind an RTT/2 access delay and is acknowledged over an
	// uncongested RTT/2 return path with RevLoss. When RTT is 0 it is
	// inferred from explicit routes' propagation delays.
	FwdRoute []netem.HopSpec
	RevRoute []netem.HopSpec
}

// Flow is a running flow's handle.
type Flow struct {
	ID     int
	Spec   FlowSpec
	Recv   *cc.Receiver
	WS     *cc.WindowSender
	RS     *cc.RateSender
	PCC    *core.PCC
	DoneAt float64 // completion time for finite flows; -1 while running

	// Closures cached at first construction so arena-reused flows schedule
	// and deliver through the same function values trial after trial instead
	// of allocating fresh method values per AddFlow.
	dataSink func(*netem.Packet)
	ackSink  func(*netem.Packet)
	startFn  func()
	onDone   func(now float64)
}

// Runner assembles and runs one simulation over a link graph — the one-link
// dumbbell of NewRunner or the general topology of NewTopologyRunner, one
// code path either way, on one Engine. A Runner (like its Engine) is
// single-threaded; parallel experiments give every trial its own Runner (see
// pool.go), which also keeps the packet free list goroutine-local.
//
// Runners built through a TrialScratch arena are additionally *reused*
// across trials: respec rewinds the engine, links, queues and flows in place
// so steady-state trials pay no setup allocations. A fresh runner is an
// empty skeleton put through that same respec, so a trial's results cannot
// depend on whether its runner was built or reused.
type Runner struct {
	Eng   *sim.Engine
	Seeds *sim.Seeds
	// Topo is the network graph (a dumbbell is a two-node topology).
	Topo *netem.Topology
	// bottleneck is the link route-less flows cross: the one named
	// netem.BottleneckLink, nil on a graph without one.
	bottleneck *netem.Link
	// Path is the dumbbell's PathSpec — the default RTT of route-less flows
	// — and just the seed on a general topology.
	Path  PathSpec
	Flows []*Flow

	// Engines is []*sim.Engine{Eng}; pinned by bench/ until ROADMAP item 1's
	// [benchmark] PR.
	Engines []*sim.Engine

	// flowPool holds every Flow ever created on this runner, by id, so a
	// re-specced trial reuses flow k's receiver, sender window storage and
	// PCC state instead of rebuilding them.
	flowPool []*Flow
	// sendData/sendAck are the topology injection method values, bound once.
	sendData func(*netem.Packet)
	sendAck  func(*netem.Packet)
	// reclaim recycles in-flight packets into the topology's pool when the
	// engine is reset between trials.
	reclaim func(arg any)
	// links is a copy of the spec's links, which fixed the skeleton, for
	// matches to compare a trial's against.
	links []LinkSpec
	// rands recycles driver-requested RNG streams (NextRand) across trials.
	rands   []*rand.Rand
	randIdx int

	// faults runs the trial's TopologySpec.Faults as engine events; its
	// per-event state is reused across trials.
	faults netem.FaultInjector
}

// makeQueue builds the AQM a Path/LinkSpec asks for.
func makeQueue(kind string, bufBytes int) netem.Queue {
	switch kind {
	case "", "droptail":
		return netem.NewDropTail(bufBytes)
	case "codel":
		return netem.NewCoDel(bufBytes)
	case "fq":
		return netem.NewFQ(bufBytes)
	case "fqcodel":
		return netem.NewFQCoDel(bufBytes)
	default:
		panic(fmt.Sprintf("exp: unknown queue kind %q", kind))
	}
}

// resetQueue re-specs a queue built by makeQueue in place for a new trial,
// draining queued packets into pool.
func resetQueue(q netem.Queue, bufBytes int, pool *netem.PacketPool) {
	switch q := q.(type) {
	case *netem.DropTail:
		q.Reset(bufBytes, pool)
	case *netem.CoDel:
		q.Reset(bufBytes)
	case *netem.FQ:
		q.Reset(bufBytes)
	}
}

// oneLink translates the dumbbell into the TopologySpec it is shorthand
// for: a single zero-delay bottleneck from "senders" to "receivers" (all
// propagation delay lives in the flows' access hops). The link is written
// into caller-provided storage so an arena's warm path allocates nothing.
func (p PathSpec) oneLink(link *[1]LinkSpec) TopologySpec {
	link[0] = LinkSpec{Name: netem.BottleneckLink, From: "senders", To: "receivers",
		RateMbps: p.RateMbps, Loss: p.Loss, BufBytes: p.BufBytes, QueueKind: p.QueueKind}
	return TopologySpec{Links: link[:], Seed: p.Seed}
}

// NewRunner builds the dumbbell for the given path. Flows added to it may
// omit their routes (see FlowSpec.FwdRoute).
func NewRunner(p PathSpec) *Runner {
	var link [1]LinkSpec
	r := NewTopologyRunner(p.oneLink(&link))
	r.Path = p
	return r
}

// NewTopologyRunner builds a runner over a general network graph. Flows
// added to it must carry explicit FwdRoute/RevRoute hop chains.
//
// Building fixes only the skeleton — the engine, the link graph with its
// queues; everything a trial parameterizes (seed chain, link
// rates/delays/loss streams, queue capacities, fault plan) is set by the
// one respec every later trial on this runner also goes through.
func NewTopologyRunner(ts TopologySpec) *Runner {
	r := &Runner{Seeds: sim.NewSeeds(ts.Seed), links: slices.Clone(ts.Links)}
	r.Eng = sim.NewEngine()
	r.Engines = []*sim.Engine{r.Eng}
	r.Topo = netem.NewTopology(r.Eng)
	r.Topo.UsePool(&netem.PacketPool{})
	for _, ls := range ts.Links {
		// No loss stream yet: respec seeds it, lazily (see netem.Rng).
		r.Topo.AddLink(ls.Name, ls.From, ls.To, makeQueue(ls.QueueKind, ls.BufBytes),
			netem.Mbps(ls.RateMbps), ls.Delay, ls.Loss, nil)
	}
	r.bottleneck = r.Topo.LinkByName(netem.BottleneckLink)
	r.bindSinks()
	r.respec(ts)
	return r
}

// GraphSpec converts a topogen-generated graph into a TopologySpec: links
// copied in add order (droptail queues). Drivers build it once per
// experiment variant and stamp Seed/Faults per trial — the link slice may be
// shared read-only across trials and workers, which keeps warm arena trials
// allocation-free. shards is ignored; pinned by bench/ until ROADMAP item 1's
// [benchmark] PR.
func GraphSpec(g *topogen.Graph, seed int64, shards int) TopologySpec {
	links := make([]LinkSpec, g.NumLinks())
	for i, l := range g.Links() {
		links[i] = LinkSpec{Name: l.Name, From: l.From, To: l.To,
			RateMbps: l.RateMbps, Delay: l.Delay, Loss: l.Loss, BufBytes: l.BufBytes}
	}
	return TopologySpec{Links: links, Seed: seed}
}

// bindSinks caches the per-runner function values every flow shares.
func (r *Runner) bindSinks() {
	r.sendData = r.Topo.SendData
	r.sendAck = r.Topo.SendAck
	pool := r.Topo.Pool
	r.reclaim = func(arg any) {
		if p, ok := arg.(*netem.Packet); ok {
			pool.Put(p)
		}
	}
}

// matches reports whether the runner's skeleton fits the spec, so that
// respec can rewind it for a trial of ts: same link structure (names,
// endpoints, queue kinds).
func (r *Runner) matches(ts TopologySpec) bool {
	if len(r.links) != len(ts.Links) {
		return false
	}
	for i, ls := range ts.Links {
		prev := r.links[i]
		if prev.Name != ls.Name || prev.From != ls.From || prev.To != ls.To || prev.QueueKind != ls.QueueKind {
			return false
		}
	}
	return true
}

// respec rewinds the runner for a new trial of a spec it matches: engine
// reset (in-flight packets recycled), seed chain rewound to the new root,
// every link and queue re-parameterized in place with one seed drawn per
// link in AddLink order, and the fault plan posted on the engine.
// Previously added flows stay parked in flowPool for AddFlow to reuse.
func (r *Runner) respec(ts TopologySpec) {
	r.Eng.Reset(r.reclaim)
	r.Seeds.Reset(ts.Seed)
	for i, ls := range ts.Links {
		// matches verified the shape name-by-name, so the rewind indexes
		// links by registration order — no per-link map probe on a path that
		// runs once per trial over potentially thousands of links.
		l := r.Topo.LinkAt(i)
		resetQueue(l.Queue, ls.BufBytes, r.Topo.Pool)
		l.Reset(netem.Mbps(ls.RateMbps), ls.Delay, ls.Loss, r.Seeds.Next())
	}
	r.Path = PathSpec{Seed: ts.Seed}
	r.Flows = r.Flows[:0]
	r.randIdx = 0
	// Exactly one runner RNG stream — flap jitter — and only when the spec
	// carries a schedule, so unfaulted experiments' seed chains are
	// untouched.
	var jrng *rand.Rand
	if !ts.Faults.Empty() {
		jrng = r.NextRand()
	}
	r.faults.Install(r.Topo, ts.Faults, jrng)
}

// FaultLog returns the fault acts the current trial has executed so far, so
// drivers can compute fault-relative metrics like recovery time after the
// last heal from what actually ran. Zero when the runner has no fault
// schedule.
func (r *Runner) FaultLog() netem.FaultLog { return r.faults.Log() }

// NextRand returns a generator seeded from the runner's derivation chain —
// the exact stream r.Seeds.NextRand() yields — while recycling generator
// storage across trials on an arena-cached runner: the k-th call of each
// trial re-seeds the k-th cached generator in place (a math/rand seed fill
// is 607 words, by far the dominant cost of a fresh generator).
func (r *Runner) NextRand() *rand.Rand {
	seed := r.Seeds.Next()
	if r.randIdx < len(r.rands) {
		rr := r.rands[r.randIdx]
		r.randIdx++
		rr.Seed(seed)
		return rr
	}
	// CachedSource memoizes post-seed states, so the re-seed path above is a
	// state copy whenever a seed recurs (every trial of a sweep re-derives
	// the same per-slot seeds from its root seed).
	rr := rand.New(sim.NewCachedSource(seed))
	r.rands = append(r.rands, rr)
	r.randIdx = len(r.rands)
	return rr
}

// Capacity returns the dumbbell bottleneck capacity in bytes/s. On a
// topology runner there is no single bottleneck and Capacity returns 0;
// use RouteCapacity with a flow's route instead.
func (r *Runner) Capacity() float64 { return netem.Mbps(r.Path.RateMbps) }

// RouteCapacity returns the narrowest link rate along a route, bytes/s
// (falling back to the dumbbell capacity for a link-less route; 0 means
// the route is unconstrained — pure delay hops on a topology runner).
func (r *Runner) RouteCapacity(route []netem.HopSpec) float64 {
	c := 0.0
	for _, h := range route {
		if h.Link == "" {
			continue
		}
		l := r.Topo.LinkByName(h.Link)
		if l == nil {
			panic(fmt.Sprintf("exp: route references unknown link %q", h.Link))
		}
		if c == 0 || l.Rate() < c {
			c = l.Rate()
		}
	}
	if c == 0 {
		c = r.Capacity()
	}
	return c
}

// routeRTT sums the propagation delays of both routes (serialization
// excluded) — the minimum RTT a packet on these routes can see.
func (r *Runner) routeRTT(fwd, rev []netem.HopSpec) float64 {
	sum := 0.0
	for _, route := range [][]netem.HopSpec{fwd, rev} {
		for _, h := range route {
			if h.Link != "" {
				l := r.Topo.LinkByName(h.Link)
				if l == nil {
					panic(fmt.Sprintf("exp: route references unknown link %q", h.Link))
				}
				sum += l.Delay()
			} else {
				sum += h.Delay
			}
		}
	}
	return sum
}

// AddFlow registers a flow; it will start at spec.StartAt. The spec carries
// FwdRoute/RevRoute; without them the flow takes the dumbbell's default
// path — the shared bottleneck behind RTT/2 access segments, RevLoss on the
// way back — which only a runner with a link of that name can route.
// AddFlow may be called while the simulation is running (cross-traffic
// generators) provided StartAt is not in the past.
//
// On an arena-reused runner, AddFlow recycles the flow previously holding
// this id: the receiver and (when the sender category matches) the sender
// are reset in place, the network routes are re-specced, and the algorithm
// object — PCC with its RNG register, MI records and seq→MI ring, or a TCP
// variant, SABUL or PCP restored to its constructor state — is rewound
// rather than rebuilt when the protocol is unchanged. A warm trial therefore
// allocates nothing here. Fresh or recycled, a flow draws the runner's seed
// chain at the same positions, so results are bit-identical.
func (r *Runner) AddFlow(spec FlowSpec) *Flow {
	id := len(r.Flows)
	fwd, rev := spec.FwdRoute, spec.RevRoute
	if (len(fwd) > 0) != (len(rev) > 0) {
		panic("exp: FwdRoute and RevRoute must be set together")
	}
	rtt, capacity := spec.RTT, 0.0
	if len(fwd) == 0 {
		if r.bottleneck == nil {
			panic("exp: flows on a topology runner need FwdRoute/RevRoute")
		}
		if rtt <= 0 {
			rtt = r.Path.RTT
		}
		capacity = r.Capacity()
		// The dumbbell's default routes stay on this frame: nothing below
		// retains a route slice, so a route-less flow allocates none.
		access := [2]netem.HopSpec{netem.DelayHop(rtt / 2), netem.LinkHop(netem.BottleneckLink)}
		back := [1]netem.HopSpec{netem.LossyDelayHop(rtt/2, spec.RevLoss)}
		fwd, rev = access[:], back[:]
	} else {
		if spec.RevLoss != 0 {
			panic("exp: RevLoss is ignored on explicit routes; use netem.LossyDelayHop in RevRoute")
		}
		if rtt <= 0 {
			rtt = r.routeRTT(fwd, rev)
		}
		capacity = r.RouteCapacity(fwd)
	}
	pktSize := spec.PacketSize
	if pktSize <= 0 {
		pktSize = cc.MSS
	}
	pool := r.Topo.Pool

	// Acquire the flow handle: recycled from a previous trial on this
	// runner, or fresh. The receiver is protocol-agnostic and always reused.
	var f *Flow
	if id < len(r.flowPool) {
		f = r.flowPool[id]
		f.Spec = spec
		f.DoneAt = -1
		f.Recv.Reset()
	} else {
		f = &Flow{ID: id, Spec: spec, DoneAt: -1}
		f.Recv = cc.NewReceiver(r.Eng, id)
		f.Recv.Pool = pool
		f.Recv.SendAck = r.sendAck
		f.dataSink = f.Recv.OnData
		f.onDone = func(now float64) { f.DoneAt = now }
		f.startFn = func() {
			if f.RS != nil {
				f.RS.Start()
			} else {
				f.WS.Start()
			}
		}
		r.flowPool = append(r.flowPool, f)
	}
	r.Flows = append(r.Flows, f)
	f.Recv.Bucket = spec.Bucket
	var flowPkts int64
	if spec.FlowKB > 0 {
		flowPkts = int64((spec.FlowKB*1000 + pktSize - 1) / pktSize)
	}

	switch spec.Proto {
	case "pcc":
		pcfg := core.SizedConfig(rtt, pktSize)
		if spec.PCCConfig != nil {
			pcfg = *spec.PCCConfig
		}
		if pcfg.PacketSize == 0 {
			// A caller-supplied config that does not pin a size inherits the
			// flow's wire size, so the monitor's MI floor matches the sender.
			pcfg.PacketSize = pktSize
			if spec.PCCConfig != nil && pktSize != cc.MSS {
				// Rescale the rate seeds exactly as SizedConfig would:
				// caller configs derive InitialRate as 2·MSS/rtt, and
				// core.New back-solves the srtt seed from InitialRate and
				// PacketSize — inheriting the size without rescaling the
				// rate would corrupt that inference. A caller who wants a
				// custom InitialRate with a custom size pins PacketSize in
				// the config itself, which skips this block entirely.
				pcfg.InitialRate = 2 * float64(pktSize) / rtt
				pcfg.MinRate = 2 * float64(pktSize)
			}
		}
		// One seed draw, at the position the fresh path's NextRand makes it.
		algoSeed := r.Seeds.Next()
		if f.PCC != nil && f.RS != nil {
			f.PCC.Reset(pcfg, algoSeed)
			f.RS.Reset(f.PCC)
		} else {
			// CachedSource memoizes the post-seed state, so the Reset branch
			// above rewinds this generator with a copy instead of a reseed.
			f.PCC = core.New(pcfg, rand.New(sim.NewCachedSource(algoSeed)))
			r.setRateSender(f, f.PCC)
		}
	case "sabul":
		if capacity <= 0 {
			panic("exp: sabul needs a route with a link: its capacity hint is the route capacity")
		}
		f.PCC = nil
		sabul, ok := recycledRateAlgo(f).(*baseline.Sabul)
		if !ok {
			sabul = new(baseline.Sabul)
		}
		sabul.Reset(capacity) // NewSabul(capacity)'s state, in place
		r.setRateSender(f, sabul)
	case "pcp":
		f.PCC = nil
		pcp, ok := recycledRateAlgo(f).(*baseline.PCP)
		if !ok {
			pcp = new(baseline.PCP)
		}
		pcp.Reset(0) // NewPCP(0)'s state, in place
		r.setRateSender(f, pcp)
	default:
		variant := spec.Proto
		if variant == "pacing" {
			variant = "newreno"
		}
		algo := recycledWindowAlgo(f, variant)
		if algo == nil {
			var err error
			if algo, err = tcp.New(variant); err != nil {
				panic(err)
			}
		}
		r.setWindowSender(f, algo)
		f.WS.Paced = spec.Proto == "pacing"
		f.WS.RTTHint = rtt
	}
	if f.WS != nil && capacity > 0 {
		// Socket-buffer-like clamp: 8x the path BDP, floored generously so
		// small-BDP paths still allow bursts. An unconstrained (link-less)
		// route keeps the sender's default window bound.
		bdpPkts := capacity * rtt / float64(pktSize)
		f.WS.MaxCwnd = float64(8*bdpPkts) + 1000
	}

	if f.RS != nil {
		f.RS.Pool = pool
		f.RS.PktSize = pktSize
		f.RS.FlowPackets = flowPkts
		f.RS.RTTHint = rtt
		f.RS.OnDone = f.onDone
	} else {
		f.WS.Pool = pool
		f.WS.PktSize = pktSize
		f.WS.FlowPackets = flowPkts
		f.WS.OnDone = f.onDone
	}
	// Register the flow's routes with the network; one RNG stream is drawn
	// from r.Seeds, new flow id or recycled one.
	r.Topo.RespecFlow(id, fwd, rev, r.Seeds, f.dataSink, f.ackSink)
	// The flow starts at its absolute instant; no *Timer is kept.
	r.Eng.PostAt(spec.StartAt, f.startFn)
	return f
}

// recycledRateAlgo returns the rate algorithm flow f's sender ran in the
// runner's previous trial, or nil.
func recycledRateAlgo(f *Flow) cc.RateAlgo {
	if f.RS == nil {
		return nil
	}
	return f.RS.Algo
}

// recycledWindowAlgo returns the window algorithm flow f's sender ran in the
// runner's previous trial, restored to its constructor state, when that is
// the named tcp variant; nil otherwise (first use, variant flip, or an
// algorithm that cannot restore itself), and the caller builds a fresh one.
func recycledWindowAlgo(f *Flow, variant string) cc.WindowAlgo {
	if f.WS == nil {
		return nil
	}
	algo := f.WS.Algo
	restorable, ok := algo.(interface{ Reset() })
	if !ok || algo.Name() != variant {
		return nil
	}
	restorable.Reset()
	return algo
}

// setRateSender installs a rate-based sender for the flow: the previous
// RateSender is reset in place when one exists, else a fresh one replaces
// whatever sender category the flow had before.
func (r *Runner) setRateSender(f *Flow, algo cc.RateAlgo) {
	if f.RS != nil {
		f.RS.Reset(algo)
		return
	}
	f.WS = nil
	f.RS = cc.NewRateSender(r.Eng, f.ID, algo, r.sendData)
	f.ackSink = f.RS.OnAck
}

// setWindowSender is setRateSender's window-based counterpart.
func (r *Runner) setWindowSender(f *Flow, algo cc.WindowAlgo) {
	f.PCC = nil
	if f.WS != nil {
		f.WS.Reset(algo)
		return
	}
	f.RS = nil
	f.WS = cc.NewWindowSender(r.Eng, f.ID, algo, r.sendData)
	f.ackSink = f.WS.OnAck
}

// Run advances the simulation to the given time (seconds).
func (r *Runner) Run(until float64) { r.Eng.RunUntil(until) }

// GoodputMbps returns a flow's whole-run goodput in Mbps measured from its
// start time to `until`.
func (f *Flow) GoodputMbps(until float64) float64 {
	dur := until - f.Spec.StartAt
	if dur <= 0 {
		return 0
	}
	return netem.ToMbps(float64(f.Recv.UniqueBytes()) / dur)
}

// SeriesMbps returns the flow's per-bucket goodput in Mbps (requires
// Spec.Bucket > 0).
func (f *Flow) SeriesMbps() []float64 {
	return f.SeriesMbpsInto(nil)
}

// SeriesMbpsInto is SeriesMbps appending into dst[:0], reusing its backing
// array: 0 allocations once dst has the series' capacity.
func (f *Flow) SeriesMbpsInto(dst []float64) []float64 {
	dst = f.Recv.BucketSeriesInto(dst)
	for i, v := range dst {
		dst[i] = netem.ToMbps(v)
	}
	return dst
}

// WindowMbps returns goodput in Mbps over [from, to] using the bucket
// series.
func (f *Flow) WindowMbps(from, to float64) float64 {
	return netem.ToMbps(f.Recv.GoodputBetween(from, to))
}

// MeanRTT returns the mean RTT sample, seconds, of the flow's sender,
// rate- or window-based.
func (f *Flow) MeanRTT() float64 {
	if f.RS != nil {
		return f.RS.MeanRTT()
	}
	return f.WS.MeanRTT()
}
