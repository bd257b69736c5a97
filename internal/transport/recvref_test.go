package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refReceiver is the reference the bitmap receiver is checked against: the
// receiver this package shipped before it shared sack.RecvWindow. Every
// out-of-order payload is copied into a map, the received runs are kept in
// a sorted slice merged one sequence at a time, and every ACK carries a copy
// of the whole list (encodeAck keeps the lowest 32). It has no reorder
// bound: differential streams stay inside reorderSlots.
type refReceiver struct {
	out    bytes.Buffer
	cumAck int64
	ooo    map[int64][]byte
	ranges []AckRange
	uniq   int64
}

func (r *refReceiver) onData(h DataHeader, payload []byte) Ack {
	switch {
	case h.Seq < r.cumAck:
	case h.Seq == r.cumAck:
		r.uniq++
		r.out.Write(payload)
		r.cumAck++
		for p, ok := r.ooo[r.cumAck]; ok; p, ok = r.ooo[r.cumAck] {
			delete(r.ooo, r.cumAck)
			r.out.Write(p)
			r.cumAck++
		}
		i := 0
		for i < len(r.ranges) && r.ranges[i].End < r.cumAck {
			i++
		}
		r.ranges = r.ranges[i:]
	default:
		if _, dup := r.ooo[h.Seq]; !dup {
			r.uniq++
			r.ooo[h.Seq] = append([]byte(nil), payload...)
			r.addRange(h.Seq)
		}
	}
	return Ack{FlowID: h.FlowID, CumAck: r.cumAck, Ranges: append([]AckRange(nil), r.ranges...),
		EchoSeq: h.Seq, EchoNanos: h.SentNanos}
}

// addRange merges seq into the sorted out-of-order range list.
func (r *refReceiver) addRange(seq int64) {
	for i := range r.ranges {
		rg := &r.ranges[i]
		switch {
		case seq >= rg.Start && seq <= rg.End:
			return
		case seq == rg.End+1:
			rg.End++
			if i+1 < len(r.ranges) && r.ranges[i+1].Start == rg.End+1 {
				rg.End = r.ranges[i+1].End
				r.ranges = append(r.ranges[:i+1], r.ranges[i+2:]...)
			}
			return
		case seq == rg.Start-1:
			rg.Start--
			return
		case seq < rg.Start:
			r.ranges = append(r.ranges, AckRange{})
			copy(r.ranges[i+1:], r.ranges[i:])
			r.ranges[i] = AckRange{Start: seq, End: seq}
			return
		}
	}
	r.ranges = append(r.ranges, AckRange{Start: seq, End: seq})
}

// TestReceiverMatchesMapReference is the receiver's differential test:
// seeded streams inside the reorder window, permuted, with duplicates,
// stale copies and packets dropped for good (so more than 32 runs pile up
// above a stuck cumulative point), fed to both receivers. Every ACK must
// encode to the same bytes, and the delivered bytes and unique counts must
// be identical.
func TestReceiverMatchesMapReference(t *testing.T) {
	t.Parallel()
	rows := []struct {
		n         int     // distinct sequences in the flow
		drop, dup float64 // per sequence
		reorder   int     // how far a packet may move in the stream
	}{
		{200, 0, 0.1, 200},
		{2000, 0.02, 0.05, 64},
		{3000, 0.1, 0.2, 3000},
		{20000, 0.01, 0.01, 5000},
	}
	for i, row := range rows {
		t.Run(fmt.Sprintf("n%d-drop%g-dup%g-reorder%d", row.n, row.drop, row.dup, row.reorder), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			var stream []int64
			for seq := int64(0); seq < int64(row.n); seq++ {
				if rng.Float64() < row.drop {
					continue
				}
				stream = append(stream, seq)
				if rng.Float64() < row.dup {
					stream = append(stream, seq)
				}
				if rng.Float64() < row.dup {
					stream = append(stream, max(0, seq-int64(rng.Intn(500)))) // stale copy
				}
			}
			for k := range stream { // bounded displacement: swap within reorder
				j := k + rng.Intn(min(row.reorder, len(stream)-k))
				stream[k], stream[j] = stream[j], stream[k]
			}

			var out bytes.Buffer
			r := NewReceiver(nil, &out)
			ref := &refReceiver{ooo: map[int64][]byte{}}
			got, want := make([]byte, 1024), make([]byte, 1024)
			for k, seq := range stream {
				h, payload := mkHeader(seq), payloadFor(seq)
				a, ok := r.onData(h, payload)
				if !ok {
					t.Fatalf("packet %d (seq %d, cum %d) dropped inside the window", k, seq, a.CumAck)
				}
				g, w := got[:encodeAck(got, a)], want[:encodeAck(want, ref.onData(h, payload))]
				if !bytes.Equal(g, w) {
					ga, _ := decodeAck(g, nil)
					wa, _ := decodeAck(w, nil)
					t.Fatalf("packet %d (seq %d): ack %+v, want %+v", k, seq, ga, wa)
				}
			}
			if !bytes.Equal(out.Bytes(), ref.out.Bytes()) || r.UniquePackets() != ref.uniq {
				t.Fatalf("delivered %d bytes / %d unique, want %d / %d", out.Len(), r.UniquePackets(), ref.out.Len(), ref.uniq)
			}
			if row.drop == 0 && r.win.CumAck() != int64(row.n) {
				t.Fatalf("lossless stream ended at cum %d of %d", r.win.CumAck(), row.n)
			}
		})
	}
}

// TestReceiverEveryOtherSeqBounded is the adversarial peer: it never sends
// sequence 0 and sends every other sequence above it, a million packets of
// MSS bytes, each accepted one answered with an encoded ACK. The reorder
// window caps what the receiver keeps — ring slots and the payload bytes
// they retain — however long the peer goes on, and everything beyond the
// window is dropped unacknowledged.
func TestReceiverEveryOtherSeqBounded(t *testing.T) {
	const packets = 1_000_000
	r := NewReceiver(nil, nil)
	payload := make([]byte, MSS)
	ackBuf := make([]byte, 1024)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	acked := 0
	for k := int64(0); k < packets; k++ {
		seq := 2*k + 1
		a, ok := r.onData(DataHeader{FlowID: 1, Seq: seq, SentNanos: seq, PayloadLen: MSS}, payload)
		if ok != (seq < reorderSlots) {
			t.Fatalf("seq %d: ok = %v with the head stuck at 0", seq, ok)
		}
		if ok {
			encodeAck(ackBuf, a)
			acked++
		}
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)

	slotCap := cap(append([]byte(nil), payload...)) // one payload's allocation
	var live, retained int
	for _, s := range r.slots {
		if s != nil {
			live++
			retained += cap(s)
		}
	}
	if len(r.slots) > reorderSlots || live != reorderSlots/2 || retained > live*slotCap {
		t.Fatalf("%d slots, %d holding %d payload bytes; want <= %d slots, %d holding <= %d bytes each",
			len(r.slots), live, retained, reorderSlots, reorderSlots/2, slotCap)
	}
	if acked != reorderSlots/2 || r.UniquePackets() != reorderSlots/2 || r.win.CumAck() != 0 {
		t.Fatalf("acked %d, unique %d, cum %d; want %d, %d, 0", acked, r.UniquePackets(), r.win.CumAck(), reorderSlots/2, reorderSlots/2)
	}
	if got, want := r.BeyondWindow(), int64(packets-reorderSlots/2); got != want {
		t.Fatalf("BeyondWindow() = %d, want %d: every unacknowledged datagram is counted", got, want)
	}
	t.Logf("%d packets in %v (%.0f ns/packet), heap %+.1f MB, %d payload bytes retained",
		packets, elapsed, float64(elapsed.Nanoseconds())/packets,
		(float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), retained)
}
