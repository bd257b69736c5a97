package netem

import (
	"fmt"

	"pcc/internal/sim"
)

// Dumbbell is the topology used by most experiments in the paper: n senders
// share one bottleneck link toward their receivers. Per-flow access
// propagation delays model heterogeneous RTTs (§4.1.5); the acknowledgment
// path is uncongested but may have its own propagation delay and random
// loss (§4.1.4 injects loss "on both forward and backward paths").
//
// Dumbbell is a thin constructor over Topology, kept as the fixture of this
// package's and cc's tests: each flow's forward route is [access-delay hop,
// bottleneck link] and its reverse route a single delay hop with optional
// Bernoulli loss. The experiment harness builds the same two-node graph
// from a one-link exp.TopologySpec instead. All propagation delay lives in
// the per-flow access hops; the bottleneck link contributes only queueing
// plus serialization.
type Dumbbell struct {
	Eng *sim.Engine
	// Topo is the underlying graph; use it for per-link stats or to layer
	// extra links/routes onto a dumbbell-based experiment. Topo.Pool holds
	// the free list UsePool installs.
	Topo       *Topology
	Bottleneck *Link
}

// BottleneckLink is the name Dumbbell registers its shared link under.
const BottleneckLink = "bottleneck"

// NewDumbbell builds a dumbbell with the given bottleneck rate, queue, and
// wire loss. The loss rng is derived from seeds.
func NewDumbbell(eng *sim.Engine, q Queue, rateBps, lossRate float64, seeds *sim.Seeds) *Dumbbell {
	d := &Dumbbell{Eng: eng, Topo: NewTopology(eng)}
	d.Bottleneck = d.Topo.AddLink(BottleneckLink, "senders", "receivers", q, rateBps, 0, lossRate, seeds.NextRand())
	return d
}

// UsePool routes every drop point of the topology — bottleneck queue
// rejection, dequeue-time AQM drops (CoDel, including CoDel children under
// FQ), wire loss, and reverse-path ACK loss — through the given free list.
// The pool must belong to the same engine/goroutine as the dumbbell.
func (d *Dumbbell) UsePool(pool *PacketPool) {
	d.Topo.UsePool(pool)
}

// FlowConfig describes one flow's path through the dumbbell.
type FlowConfig struct {
	// FwdDelay is the sender→bottleneck propagation delay (seconds).
	FwdDelay float64
	// RevDelay is the receiver→sender propagation delay (seconds).
	RevDelay float64
	// RevLoss is the Bernoulli loss probability on the ACK path.
	RevLoss float64
}

// SymmetricRTT returns a FlowConfig splitting rtt evenly between the two
// directions with no reverse loss.
func SymmetricRTT(rtt float64) FlowConfig {
	return FlowConfig{FwdDelay: rtt / 2, RevDelay: rtt / 2}
}

// AddFlow registers flow id with its path configuration and delivery
// callbacks. dataSink receives data packets at the receiver; ackSink
// receives ACKs back at the sender.
func (d *Dumbbell) AddFlow(id int, cfg FlowConfig, seeds *sim.Seeds, dataSink, ackSink func(*Packet)) {
	d.Topo.AddFlow(id,
		[]HopSpec{DelayHop(cfg.FwdDelay), LinkHop(BottleneckLink)},
		[]HopSpec{LossyDelayHop(cfg.RevDelay, cfg.RevLoss)},
		seeds, dataSink, ackSink)
}

// SetFlowDelays changes a flow's propagation delays at runtime.
func (d *Dumbbell) SetFlowDelays(id int, fwd, rev float64) {
	fr, rr := d.Topo.FlowRoutes(id)
	if fr == nil {
		panic(fmt.Sprintf("netem: SetFlowDelays for unregistered flow %d", id))
	}
	fr.SetDelay(0, fwd)
	rr.SetDelay(0, rev)
}

// SendData injects a data packet at flow p.Flow's sender.
func (d *Dumbbell) SendData(p *Packet) { d.Topo.SendData(p) }

// SendAck injects an ACK at flow p.Flow's receiver; it traverses the
// uncongested reverse path, subject to reverse loss.
func (d *Dumbbell) SendAck(p *Packet) { d.Topo.SendAck(p) }
