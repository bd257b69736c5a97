package cc

import (
	"pcc/internal/netem"
	"pcc/internal/sack"
	"pcc/internal/sim"
)

// Receiver is the data sink for one flow. It acknowledges every data packet
// (cumulative + selective sequence number + timestamp echo) and tracks
// goodput: only the first delivery of each sequence number counts.
type Receiver struct {
	Eng  *sim.Engine
	Flow int
	// SendAck transmits an ACK onto the reverse path (the harness wires it
	// to the flow's reverse Topology route).
	SendAck func(*netem.Packet)

	// Bucket, when > 0, aggregates goodput into time buckets of this width
	// (seconds) for rate-over-time plots.
	Bucket  float64
	buckets []float64 // bytes per bucket

	// Pool, when set, recycles packets: consumed data packets are returned
	// to it and outgoing ACKs are allocated from it. It must belong to this
	// receiver's engine (pooling never crosses goroutines).
	Pool *netem.PacketPool

	win         sack.RecvWindow
	uniqueBytes int64
	uniquePkts  int64
	totalPkts   int64
	firstAt     float64
	lastAt      float64
}

// NewReceiver builds a receiver for the given flow.
func NewReceiver(eng *sim.Engine, flow int) *Receiver {
	return &Receiver{Eng: eng, Flow: flow, firstAt: -1}
}

// Reset returns the receiver to its just-constructed state for a new trial
// on a reset engine, retaining grown storage (the out-of-order bitmap and
// the bucket series backing) and the Eng/Flow/SendAck/Pool wiring. Callers
// re-apply the per-trial knob (Bucket) afterwards, exactly as they would
// configure a fresh receiver.
func (r *Receiver) Reset() {
	r.Bucket = 0
	r.buckets = r.buckets[:0]
	r.win.Reset()
	r.uniqueBytes, r.uniquePkts, r.totalPkts = 0, 0, 0
	r.firstAt, r.lastAt = -1, 0
}

// OnData processes an arriving data packet and emits an ACK.
func (r *Receiver) OnData(p *netem.Packet) {
	now := r.Eng.Now()
	r.totalPkts++
	if r.firstAt < 0 {
		r.firstAt = now
	}
	r.lastAt = now

	if r.win.Add(p.Seq) {
		r.uniqueBytes += int64(p.Size)
		r.uniquePkts++
		if r.Bucket > 0 {
			i := int(now / r.Bucket)
			for len(r.buckets) <= i {
				r.buckets = append(r.buckets, 0)
			}
			r.buckets[i] += float64(p.Size)
		}
	}

	flow, seq, sent := p.Flow, p.Seq, p.Sent
	// The data packet is consumed; recycling it here often hands the same
	// slot straight back out as the ACK below.
	r.Pool.Put(p)
	ack := r.Pool.Get()
	ack.Flow = flow
	ack.Ack = true
	ack.Size = AckSize
	ack.Sent = now
	ack.CumAck = r.win.CumAck()
	ack.SackSeq = seq
	ack.EchoSent = sent
	if r.SendAck != nil {
		r.SendAck(ack)
	} else {
		r.Pool.Put(ack)
	}
}

// UniqueBytes returns the goodput byte count (retransmissions deduplicated).
func (r *Receiver) UniqueBytes() int64 { return r.uniqueBytes }

// TotalPackets returns every delivered packet including duplicates.
func (r *Receiver) TotalPackets() int64 { return r.totalPkts }

// BucketSeries returns per-bucket goodput in bytes/s. Valid when Bucket > 0.
func (r *Receiver) BucketSeries() []float64 {
	return r.BucketSeriesInto(nil)
}

// BucketSeriesInto is BucketSeries appending into dst[:0], reusing its
// backing array: 0 allocations once dst has the series' capacity.
func (r *Receiver) BucketSeriesInto(dst []float64) []float64 {
	dst = dst[:0]
	for _, b := range r.buckets {
		dst = append(dst, b/r.Bucket)
	}
	return dst
}

// GoodputBetween returns unique-byte goodput measured over bucketed time
// range [from, to) using the bucket series; requires Bucket > 0.
func (r *Receiver) GoodputBetween(from, to float64) float64 {
	if r.Bucket <= 0 || to <= from {
		return 0
	}
	lo, hi := int(from/r.Bucket), int(to/r.Bucket)
	var sum float64
	for i := lo; i < hi && i < len(r.buckets); i++ {
		sum += r.buckets[i]
	}
	// Explicit conversions: callers pass products, which must not fuse
	// into the difference.
	return sum / (float64(to) - float64(from))
}
