package netem

import (
	"fmt"
	"math/rand"

	"pcc/internal/sim"
)

// Topology is a general network graph: named nodes joined by directed Links,
// with every flow assigned an explicit forward and reverse route (an ordered
// chain of hops). It generalizes the dumbbell every paper experiment runs
// on — multiple bottlenecks in series (parking lot), congested ACK paths
// (data and ACKs of opposing flows sharing a link), and cross-traffic that
// touches only a subset of hops — while keeping the simulator's invariants:
// all per-packet scheduling is closure-free and batched (a delay stage is a
// sim.Pipe allocated once at registration or, in front of a link, that
// link's inbox), every drop point recycles through the topology's PacketPool,
// and for a fixed seed the event sequence is bit-reproducible.
//
// A route hop is either
//
//   - a link hop: the packet is offered to a shared store-and-forward Link
//     (queueing + serialization + propagation + wire loss), or
//   - a delay hop: a pure propagation delay with optional Bernoulli loss and
//     no queueing — the per-flow access segments of the dumbbell.
//
// Each Link keeps its own Delivered/WireLost counters and its queue counts
// drops, so per-hop accounting holds at every link of a route:
// packets offered = delivered + wire-lost + queue-dropped.
type Topology struct {
	Eng *sim.Engine
	// Pool, when set via UsePool, recycles every packet the topology drops:
	// queue rejections, AQM drops, wire loss, and delay-hop loss. It must
	// belong to the same goroutine as the topology's engine.
	Pool *PacketPool

	links   []*linkInfo
	linkIdx map[string]int
	// flows is indexed by flow id. Flow ids are required to be small
	// non-negative integers (the harness hands out 0,1,2,…) precisely so
	// SendData/SendAck's per-packet route lookup is direct slice indexing,
	// not a map probe.
	flows []*topoFlow
}

// linkInfo is a Link plus its place in the graph.
type linkInfo struct {
	link     *Link
	name     string
	from, to string
}

// growPut grows a flow-indexed table to cover id and stores v there. Shared
// by the topology flow table and FQ's per-flow queue table.
func growPut[T any](s []T, id int, v T) []T {
	for len(s) <= id {
		var zero T
		s = append(s, zero)
	}
	s[id] = v
	return s
}

// dispatch is the link's Sink: it forwards the exiting packet along its
// route. The hop rides in the packet (hop.enter put it there) and is the only
// routing path: a packet no hop of this link stamped was not offered by a
// route, and is recycled.
func (li *linkInfo) dispatch(t *Topology, p *Packet) {
	if h := p.hop; h != nil && h.link == li {
		h.forward(p)
		return
	}
	t.Pool.Put(p)
}

// topoFlow is one registered flow: its two routes plus the single lossy-hop
// RNG stream both routes share (kept here so RespecFlow can rewind it in
// place instead of allocating a new stream per trial).
type topoFlow struct {
	fwd, rev *Route
	rng      *Rng
}

// hop is one step of one flow's route in one direction. Exactly one of link
// and the delay/loss fields is meaningful.
type hop struct {
	t    *Topology
	link *linkInfo // link hop when non-nil

	delay float64 // delay hop: one-way propagation, seconds (mutable)
	loss  float64 // delay hop: Bernoulli loss probability (mutable)
	rng   *Rng

	next *hop          // nil ⇒ this is the last hop
	sink func(*Packet) // terminal delivery, set on the last hop only
	// feed is set on a delay hop whose next hop is a link — every flow's
	// access segment — and replaces its pipe: the hop posts straight into the
	// link's inbox (Link.SendAt), whose admission does everything a delivery
	// event would have done, which was only to call Send. Sorted insertion
	// there keeps packets that overtake after a SetDelay shrink in delivery
	// order.
	feed *Link
	// pipe is the propagation delay line of a delay hop without a feed (see
	// sim.Pipe): the hop's whole in-flight train shares one self-rearming
	// scheduler slot, so an 800 ms satellite segment holds one slot, not one
	// heap event per packet. If SetDelay shrinks the delay mid-flight, the
	// pipe transparently falls back to per-event scheduling for the
	// overtaking packets, preserving the exact delivery order of the
	// per-event path.
	pipe *sim.Pipe
}

// enter offers a packet to this hop.
func (h *hop) enter(p *Packet) {
	if h.link != nil {
		p.hop = h
		h.link.link.Send(p)
		return
	}
	if h.loss > 0 && h.rng.Valid() && h.rng.Float64() < h.loss {
		h.t.Pool.Put(p)
		return
	}
	if h.feed != nil {
		p.hop = h.next
		h.feed.SendAt(p, h.t.Eng.Now()+max(h.delay, 0))
		return
	}
	h.pipe.Post(h.delay, p)
}

// forward moves a packet that finished this hop to the next one, or delivers
// it at the end of the route.
func (h *hop) forward(p *Packet) {
	if h.next != nil {
		h.next.enter(p)
		return
	}
	if h.sink != nil {
		h.sink(p)
		return
	}
	h.t.Pool.Put(p)
}

// Route is one direction of a flow's path through the topology.
type Route struct {
	hops []*hop
}

// SetDelay updates the propagation delay of hop i, which must be a delay
// hop (used by the rapidly-changing-network experiment).
func (r *Route) SetDelay(i int, delay float64) {
	h := r.hops[i]
	if h.link != nil {
		panic(fmt.Sprintf("netem: SetDelay on link hop %d (adjust the Link instead)", i))
	}
	h.delay = delay
}

// SetLoss updates the Bernoulli loss probability of delay hop i.
func (r *Route) SetLoss(i int, loss float64) {
	h := r.hops[i]
	if h.link != nil {
		panic(fmt.Sprintf("netem: SetLoss on link hop %d (adjust the Link instead)", i))
	}
	h.loss = loss
}

// HopSpec describes one hop of a route: either a named link of the topology
// (Link != ""), or a pure propagation-delay hop with optional Bernoulli
// loss. The zero HopSpec is a zero-delay hop.
type HopSpec struct {
	// Link names a link registered with AddLink.
	Link string
	// Delay is the one-way propagation delay of a delay hop, seconds.
	Delay float64
	// Loss is the Bernoulli loss probability of a delay hop.
	Loss float64
}

// LinkHop routes over the named link.
func LinkHop(name string) HopSpec { return HopSpec{Link: name} }

// DelayHop is a pure propagation segment.
func DelayHop(delay float64) HopSpec { return HopSpec{Delay: delay} }

// LossyDelayHop is a propagation segment with Bernoulli loss (the
// uncongested-but-lossy reverse path of §4.1.4).
func LossyDelayHop(delay, loss float64) HopSpec { return HopSpec{Delay: delay, Loss: loss} }

// BottleneckLink names a dumbbell's one shared link, from "senders" to
// "receivers": the graph exp.NewRunner builds for a PathSpec.
const BottleneckLink = "bottleneck"

// NewTopology returns an empty topology on the given engine.
func NewTopology(eng *sim.Engine) *Topology {
	return &Topology{
		Eng:     eng,
		linkIdx: map[string]int{},
	}
}

// linkAt resolves a link name to its info, nil when absent.
func (t *Topology) linkAt(name string) *linkInfo {
	if i, ok := t.linkIdx[name]; ok {
		return t.links[i]
	}
	return nil
}

// AddLink creates the directed link from→to and registers it under name.
// Nodes exist implicitly as link endpoints. The rng drives the link's wire
// loss process only; nil disables random loss. If UsePool was already
// called, the new link joins the pool.
func (t *Topology) AddLink(name, from, to string, q Queue, rateBps, delay, lossRate float64, rng *rand.Rand) *Link {
	if _, dup := t.linkIdx[name]; dup {
		panic(fmt.Sprintf("netem: duplicate link %q", name))
	}
	li := &linkInfo{name: name, from: from, to: to}
	li.link = NewLink(t.Eng, q, rateBps, delay, lossRate, rng)
	li.link.Sink = func(p *Packet) { li.dispatch(t, p) }
	if t.Pool != nil {
		li.link.Pool = t.Pool
		q.usePool(t.Pool)
	}
	t.linkIdx[name] = len(t.links)
	t.links = append(t.links, li)
	return li.link
}

// LinkByName returns the named link (nil if absent), for runtime parameter
// changes and per-link assertions.
func (t *Topology) LinkByName(name string) *Link {
	if li := t.linkAt(name); li != nil {
		return li.link
	}
	return nil
}

// NumLinks returns the registered link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// LinkAt returns link i in AddLink order — the index-based counterpart of
// LinkByName for respec loops that already know registration order, so a
// thousand-link rewind does integer indexing instead of map probes.
func (t *Topology) LinkAt(i int) *Link { return t.links[i].link }

// UsePool routes every drop point of the topology — queue rejection,
// dequeue-time AQM drops, wire loss, and delay-hop loss — through the given
// free list. Links added later join the pool automatically.
func (t *Topology) UsePool(pool *PacketPool) {
	t.Pool = pool
	for _, li := range t.links {
		li.link.Pool = pool
		li.link.Queue.usePool(pool)
	}
}

// AddFlow registers flow id with explicit forward and reverse routes and
// delivery callbacks: dataSink receives data packets at the end of the
// forward route, ackSink receives ACKs at the end of the reverse route.
// Exactly one RNG stream is drawn from seeds per flow — shared by the lossy
// delay hops of both routes — so adding or removing loss on a hop never
// perturbs the draws other components see.
//
// Consecutive link hops must connect head-to-tail in the graph; delay hops
// are node-less access/propagation segments and may appear anywhere. A flow
// may traverse a given link at most once per direction.
func (t *Topology) AddFlow(id int, fwd, rev []HopSpec, seeds *sim.Seeds, dataSink, ackSink func(*Packet)) (fwdRoute, revRoute *Route) {
	if id < 0 {
		panic(fmt.Sprintf("netem: flow id %d must be non-negative (ids index the flow table)", id))
	}
	if id < len(t.flows) && t.flows[id] != nil {
		panic(fmt.Sprintf("netem: duplicate flow %d", id))
	}
	// The stream is derived eagerly (so the seed chain other components see
	// never shifts) but materialized lazily on the first loss draw.
	rng := new(Rng)
	*rng = SeededRng(seeds.Next())
	f := &topoFlow{
		fwd: t.buildRoute(id, false, fwd, rng, dataSink),
		rev: t.buildRoute(id, true, rev, rng, ackSink),
		rng: rng,
	}
	t.flows = growPut(t.flows, id, f)
	return f.fwd, f.rev
}

// RespecFlow re-registers flow id for a new trial on a reset engine. For an
// unknown id it is exactly AddFlow. For a known id it re-specs the existing
// routes in place when their shapes (hop count, link names, hop kinds) match
// the specs — updating delay/loss parameters, rewinding the flow's RNG
// stream, and re-pointing the delivery sinks, with every hop and pipe reused
// — and otherwise tears the old routes down and rebuilds them. Either way
// exactly one seed is drawn from the chain, at the same position AddFlow
// draws it, so the loss process is bit-identical to a fresh build.
//
// RespecFlow must only be called between simulations (after Engine.Reset):
// re-speccing routes with packets in flight would mis-deliver them.
func (t *Topology) RespecFlow(id int, fwd, rev []HopSpec, seeds *sim.Seeds, dataSink, ackSink func(*Packet)) (fwdRoute, revRoute *Route) {
	f := t.flow(id)
	if f == nil {
		return t.AddFlow(id, fwd, rev, seeds, dataSink, ackSink)
	}
	seed := seeds.Next()
	if routeShape(f.fwd, fwd) && routeShape(f.rev, rev) {
		f.rng.Reseed(seed)
		t.respecRoute(id, f.fwd, fwd, dataSink)
		t.respecRoute(id, f.rev, rev, ackSink)
		return f.fwd, f.rev
	}
	t.dropRoute(f.fwd)
	t.dropRoute(f.rev)
	rng := f.rng
	rng.Reseed(seed)
	f.fwd = t.buildRoute(id, false, fwd, rng, dataSink)
	f.rev = t.buildRoute(id, true, rev, rng, ackSink)
	return f.fwd, f.rev
}

// routeShape reports whether an existing route has the same shape as specs:
// same hop count, with link hops over the same links and delay hops in the
// same positions. Parameters (delay, loss) are not part of the shape.
func routeShape(r *Route, specs []HopSpec) bool {
	if len(r.hops) != len(specs) {
		return false
	}
	for i, hs := range specs {
		h := r.hops[i]
		if hs.Link != "" {
			if h.link == nil || h.link.name != hs.Link {
				return false
			}
		} else if h.link != nil {
			return false
		}
	}
	return true
}

// respecRoute applies new hop parameters and the terminal sink to a
// shape-matching route.
func (t *Topology) respecRoute(id int, r *Route, specs []HopSpec, sink func(*Packet)) {
	for i, hs := range specs {
		h := r.hops[i]
		if hs.Link != "" {
			if hs.Delay != 0 || hs.Loss != 0 {
				panic(fmt.Sprintf("netem: flow %d hop over link %q also sets Delay/Loss (a link hop uses the Link's own parameters; add a separate delay hop)", id, hs.Link))
			}
			continue
		}
		h.delay = hs.Delay
		h.loss = hs.Loss
	}
	r.hops[len(r.hops)-1].sink = sink
}

// dropRoute unregisters one direction of a flow's path: delay-hop pipes
// leave the engine's pipe list.
func (t *Topology) dropRoute(r *Route) {
	for _, h := range r.hops {
		h.sink = nil
		if h.pipe != nil {
			t.Eng.DropPipe(h.pipe)
		}
	}
}

// buildRoute assembles and registers one direction of a flow's path.
func (t *Topology) buildRoute(id int, ack bool, specs []HopSpec, rng *Rng, sink func(*Packet)) *Route {
	if len(specs) == 0 {
		panic(fmt.Sprintf("netem: empty route for flow %d", id))
	}
	dir := "data"
	if ack {
		dir = "ack"
	}
	r := &Route{hops: make([]*hop, 0, len(specs))}
	at := "" // current node, once a link hop pins it
	for _, hs := range specs {
		h := &hop{t: t}
		if hs.Link != "" {
			if hs.Delay != 0 || hs.Loss != 0 {
				panic(fmt.Sprintf("netem: flow %d hop over link %q also sets Delay/Loss (a link hop uses the Link's own parameters; add a separate delay hop)", id, hs.Link))
			}
			li := t.linkAt(hs.Link)
			if li == nil {
				panic(fmt.Sprintf("netem: flow %d routes over unknown link %q", id, hs.Link))
			}
			if at != "" && at != li.from {
				panic(fmt.Sprintf("netem: flow %d %s route is disconnected: at node %q but link %q starts at %q",
					id, dir, at, hs.Link, li.from))
			}
			at = li.to
			for _, prev := range r.hops {
				if prev.link == li {
					panic(fmt.Sprintf("netem: flow %d traverses link %q twice on its %s route", id, hs.Link, dir))
				}
			}
			h.link = li
		} else {
			h.delay = hs.Delay
			h.loss = hs.Loss
			h.rng = rng
		}
		r.hops = append(r.hops, h)
	}
	// Resolve pass: a delay hop in front of a link becomes the link's feed;
	// only the rest — trailing hops and delay chains — keep a pipe.
	for i, h := range r.hops {
		switch {
		case h.link != nil:
		case i+1 < len(r.hops) && r.hops[i+1].link != nil:
			h.feed = r.hops[i+1].link.link
		default:
			h.pipe = t.Eng.NewPipe(func(a any) { h.forward(a.(*Packet)) })
		}
	}
	for i := 0; i < len(r.hops)-1; i++ {
		r.hops[i].next = r.hops[i+1]
	}
	r.hops[len(r.hops)-1].sink = sink
	return r
}

// flow returns the registered flow, or nil.
func (t *Topology) flow(id int) *topoFlow {
	if id >= 0 && id < len(t.flows) {
		return t.flows[id]
	}
	return nil
}

// FlowRoutes returns the registered routes of flow id (nil, nil if the flow
// is unknown).
func (t *Topology) FlowRoutes(id int) (fwd, rev *Route) {
	f := t.flow(id)
	if f == nil {
		return nil, nil
	}
	return f.fwd, f.rev
}

// SendData injects a data packet at the head of flow p.Flow's forward route.
func (t *Topology) SendData(p *Packet) {
	f := t.flow(p.Flow)
	if f == nil {
		panic(fmt.Sprintf("netem: SendData for unregistered flow %d", p.Flow))
	}
	f.fwd.hops[0].enter(p)
}

// SendAck injects an ACK at the head of flow p.Flow's reverse route.
func (t *Topology) SendAck(p *Packet) {
	f := t.flow(p.Flow)
	if f == nil {
		panic(fmt.Sprintf("netem: SendAck for unregistered flow %d", p.Flow))
	}
	f.rev.hops[0].enter(p)
}

// LinkStats is one link's cumulative accounting, in packets and in wire
// bytes. At any point, bytes offered to the link equal DeliveredBytes +
// WireLostBytes + QueueDroppedBytes + FaultDroppedBytes + QueuedBytes +
// TxBytes (the packet on the wire head) — the Conserved method checks
// exactly that identity, which packet counts alone cannot express once flows
// mix packet sizes.
type LinkStats struct {
	Name         string
	Delivered    int64
	WireLost     int64
	QueueDropped int64
	FaultDropped int64

	OfferedBytes      int64
	DeliveredBytes    int64
	WireLostBytes     int64
	QueueDroppedBytes int64
	FaultDroppedBytes int64
	QueuedBytes       int64
	TxBytes           int64
}

// Conserved reports whether the link's byte ledger balances: every byte
// offered is delivered, lost on the wire, dropped by the queue, destroyed by
// fault injection, still queued, or serializing.
func (s LinkStats) Conserved() bool {
	return s.OfferedBytes == s.DeliveredBytes+s.WireLostBytes+s.QueueDroppedBytes+s.FaultDroppedBytes+s.QueuedBytes+s.TxBytes
}

// Stats returns per-link accounting in AddLink order (deterministic, so
// reports embedding it stay byte-identical across runs), each link's exact at
// its clock.
func (t *Topology) Stats() []LinkStats {
	out := make([]LinkStats, len(t.links))
	for i, li := range t.links {
		out[i] = li.link.ledger()
		out[i].Name = li.name
	}
	return out
}
