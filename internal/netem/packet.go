// Package netem implements the network substrate used by every experiment in
// this repository: packets, drop-tail and CoDel queues, fair queueing (DRR),
// rate/delay/loss links, and dumbbell topologies with optionally
// time-varying parameters.
//
// Conventions used throughout the repository:
//
//   - rates are bytes per second (float64),
//   - sizes are bytes (int),
//   - times are seconds (float64, from the sim engine clock).
//
// The packet type is deliberately flat and reused for data and ACKs; in the
// spirit of zero-copy packet processing there is no payload, only metadata —
// the simulations only need byte accounting, not byte contents.
package netem

// Packet is a simulated packet. Packets are heap-allocated by senders and
// recycled through a per-flow free list where that matters; they must not be
// retained by queues after delivery.
type Packet struct {
	// Flow identifies the sending flow; queues with per-flow state (FQ) and
	// receivers demultiplex on it.
	Flow int
	// Seq is the data sequence number (in packets, not bytes).
	Seq int64
	// Size is the wire size in bytes.
	Size int
	// Sent is the time the sender handed the packet to the network; echoed
	// in ACKs for RTT measurement.
	Sent float64
	// Enq is the time the packet entered the current queue; used by CoDel
	// for sojourn-time measurement. Owned by the queue between Enqueue and
	// Dequeue.
	Enq float64

	// Ack marks an acknowledgment travelling the reverse path.
	Ack bool
	// Marked carries an optional congestion mark (used by tests probing AQM
	// behaviour; PCC itself needs no marks). It sits beside Ack so the two
	// flags share a word and the struct stays in the 80-byte size class.
	Marked bool
	// CumAck is the receiver's next expected sequence number (cumulative
	// acknowledgment), valid when Ack is set.
	CumAck int64
	// SackSeq is the sequence number of the specific data packet that
	// triggered this ACK (selective acknowledgment granularity).
	SackSeq int64
	// EchoSent is the Sent timestamp of the acknowledged data packet.
	EchoSent float64
	// hop is the route hop the packet is crossing, set when a Topology route
	// offers it to a link so the link's exit can continue the route without a
	// per-flow table lookup. PacketPool.Put's zeroing clears it.
	hop *hop
}
