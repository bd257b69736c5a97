package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fakeConnData builds a raw data packet for direct onData injection.
func mkHeader(seq int64) DataHeader {
	return DataHeader{FlowID: 1, Seq: seq, SentNanos: seq * 1000, PayloadLen: 8}
}

func payloadFor(seq int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(seq))
	return b
}

// TestReassemblyInOrderDelivery: any permutation of packet arrivals must
// produce in-order byte delivery with no duplicates or gaps.
func TestReassemblyPermutationProperty(t *testing.T) {
	f := func(permSeed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(permSeed))
		order := rng.Perm(n)

		var out bytes.Buffer
		r := NewReceiver(nil, &out)
		for _, i := range order {
			r.onData(mkHeader(int64(i)), payloadFor(int64(i)))
			// Duplicate some packets: must be idempotent.
			if i%3 == 0 {
				r.onData(mkHeader(int64(i)), payloadFor(int64(i)))
			}
		}
		if r.win.CumAck() != int64(n) {
			return false
		}
		want := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			want = append(want, payloadFor(int64(i))...)
		}
		return bytes.Equal(out.Bytes(), want) && r.UniquePackets() == int64(n)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRangeTracking: the ranges of the receiver's ACK must exactly describe
// the out-of-order set.
func TestRangeTracking(t *testing.T) {
	r := NewReceiver(nil, nil)
	var a Ack
	for _, seq := range []int64{5, 3, 7, 6, 10} {
		a, _ = r.onData(mkHeader(seq), payloadFor(seq))
	}
	// cumAck = 0; ranges should be [3,3] [5,7] [10,10].
	if want := []AckRange{{3, 3}, {5, 7}, {10, 10}}; a.CumAck != 0 || !slices.Equal(a.Ranges, want) {
		t.Fatalf("ack cum %d ranges %v, want 0 %v", a.CumAck, a.Ranges, want)
	}
	// Fill the head: ranges below cumAck must be trimmed.
	for seq := int64(0); seq < 3; seq++ {
		a, _ = r.onData(mkHeader(seq), payloadFor(seq))
	}
	if want := []AckRange{{5, 7}, {10, 10}}; a.CumAck != 4 || !slices.Equal(a.Ranges, want) {
		t.Fatalf("ack after trim: cum %d ranges %v, want 4 %v", a.CumAck, a.Ranges, want)
	}
}

// Property: an ACK's ranges are always sorted, non-overlapping, above cumAck.
func TestRangeInvariantProperty(t *testing.T) {
	f := func(seqsRaw []uint8) bool {
		r := NewReceiver(nil, nil)
		for _, s := range seqsRaw {
			a, _ := r.onData(mkHeader(int64(s)), payloadFor(int64(s)))
			prev := a.CumAck - 1
			for _, rg := range a.Ranges {
				if rg.Start <= prev || rg.End < rg.Start {
					return false
				}
				prev = rg.End + 1 // adjacent ranges must have been merged
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
