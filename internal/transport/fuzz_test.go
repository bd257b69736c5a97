package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip fuzzes the wire codec with raw bytes: any input that
// decodes must re-encode to the identical wire image (modulo the documented
// 32-range ACK truncation) and decode again to the identical structure.
// Seed corpus entries live in testdata/fuzz/FuzzWireRoundTrip; a few
// programmatic seeds below cover each packet type and the empty input.
func FuzzWireRoundTrip(f *testing.F) {
	var buf [4096]byte
	n := encodeData(buf[:], 7, 42, 12345, []byte("hello, wire"))
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeAck(buf[:], Ack{FlowID: 7, CumAck: 9,
		Ranges: []AckRange{{Start: 1, End: 3}, {Start: 5, End: 5}}, EchoSeq: 11, EchoNanos: 99})
	f.Add(append([]byte(nil), buf[:n]...))
	n = encodeFin(buf[:], 3, 1<<40)
	f.Add(append([]byte(nil), buf[:n]...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})
	// Wire edge cases: the maximum 32-range ACK (must round-trip through
	// the receiver's 1024-byte ackBuf), the same ACK truncated inside its
	// trailing echo fields, and a zero-length final payload.
	n = encodeAck(buf[:], maxAck())
	f.Add(append([]byte(nil), buf[:n]...))
	f.Add(append([]byte(nil), buf[:n-7]...))
	n = encodeData(buf[:], 3, 77, 555, nil)
	f.Add(append([]byte(nil), buf[:n]...))

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		switch b[0] {
		case typeData:
			h, payload, err := decodeData(b)
			if err != nil {
				return // malformed input must only error, never panic
			}
			if h.PayloadLen != len(payload) {
				t.Fatalf("decodeData: header says %d payload bytes, returned %d", h.PayloadLen, len(payload))
			}
			out := make([]byte, dataHeaderLen+len(payload))
			n := encodeData(out, h.FlowID, h.Seq, h.SentNanos, payload)
			if !bytes.Equal(out[:n], b[:n]) {
				t.Fatalf("data re-encode mismatch:\n in: %x\nout: %x", b[:n], out[:n])
			}
		case typeAck:
			a, err := decodeAck(b, nil)
			if err != nil {
				return
			}
			out := make([]byte, 14+16*len(a.Ranges)+16)
			n := encodeAck(out, a)
			a2, err := decodeAck(out[:n], nil)
			if err != nil {
				t.Fatalf("re-decode of re-encoded ack failed: %v", err)
			}
			want := a
			if len(want.Ranges) > 32 {
				// encodeAck documents truncation to 32 SACK ranges.
				want.Ranges = want.Ranges[:32]
			}
			if !reflect.DeepEqual(a2, want) {
				t.Fatalf("ack round-trip mismatch:\nwant %+v\ngot  %+v", want, a2)
			}
		case typeFin:
			id, total, err := decodeFin(b)
			if err != nil {
				return
			}
			out := make([]byte, 13)
			n := encodeFin(out, id, total)
			id2, total2, err := decodeFin(out[:n])
			if err != nil || id2 != id || total2 != total {
				t.Fatalf("fin round-trip mismatch: (%d,%d,%v) vs (%d,%d)", id2, total2, err, id, total)
			}
		default:
			// Unknown type byte: every decoder must reject it without panicking.
			if _, _, err := decodeData(b); err == nil {
				t.Fatal("decodeData accepted a mistyped packet")
			}
			if _, err := decodeAck(b, nil); err == nil {
				t.Fatal("decodeAck accepted a mistyped packet")
			}
			if _, _, err := decodeFin(b); err == nil {
				t.Fatal("decodeFin accepted a mistyped packet")
			}
		}
	})
}

// FuzzSenderOnAck feeds arbitrary bytes through decodeAck into a mid-flow
// sendCore: whatever the wire says, OnAck returns, panics nowhere,
// acknowledges no sequence that was not sent and cannot complete a flow that
// has data left to send. The seed corpus is the four forged ACKs of
// TestForgedAckCannotHangOrComplete.
func FuzzSenderOnAck(f *testing.F) {
	var buf [1024]byte
	for _, row := range forgedAcks {
		f.Add(append([]byte(nil), buf[:encodeAck(buf[:], row.ack)]...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := decodeAck(b, nil)
		if err != nil {
			return
		}
		c, _ := testCore(t, 8*MSS)
		pkt := make([]byte, dataHeaderLen+MSS)
		now := 0.0
		for i := 0; i < 4; i++ {
			_, now = c.Poll(now, pkt)
		}
		c.OnAck(a, now)
		if c.board.Next() != 4 || c.board.CumAck() > 4 || c.ackedBytes > 4*MSS {
			t.Fatalf("ack %+v: board [%d,%d), %d bytes acked with 4 packets sent", a, c.board.CumAck(), c.board.Next(), c.ackedBytes)
		}
		if c.dataDone() || c.finished() {
			t.Fatalf("ack %+v completed a flow with 4 of 8 packets unsent", a)
		}
		// The core must still be drivable: everything unsent goes out.
		for c.sent-c.rtx < 8 {
			if _, now = c.Poll(now, pkt); c.finished() {
				t.Fatalf("ack %+v failed the flow: %v", a, c.err)
			}
		}
	})
}

// recvRecord is the size of one FuzzReceiverOnData operation: a kind byte
// and eight bytes of sequence.
const recvRecord = 9

// FuzzReceiverOnData feeds the receiver a stream of data and FIN datagrams
// decoded from the input, 9 bytes each: kind&1 picks FIN over data, and
// kind&2 reads the next 8 bytes as an absolute sequence (negative, or far
// ahead: 2⁶² and beyond) where otherwise the next 4 bytes are a signed
// offset from the cumulative point, within reorderSlots+63 either way
// (duplicates, stale copies, holes, the window edge). A data payload is its
// sequence's 8 bytes, so the output stream is checkable. Whatever arrives,
// the receiver never panics, its cumulative point never moves back, its
// payload ring never passes reorderSlots slots, it drops exactly the
// datagrams at or beyond the window and acknowledges every other one with
// at most 32 ordered ranges inside the window, and what it wrote is the
// payloads of [0, CumAck) in order. The seed corpus is
// testdata/fuzz/FuzzReceiverOnData.
func FuzzReceiverOnData(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var out bytes.Buffer
		r := NewReceiver(nil, &out)
		var dropped int64
		for ; len(b) >= recvRecord; b = b[recvRecord:] {
			cum := r.win.CumAck()
			seq := int64(binary.BigEndian.Uint64(b[1:]))
			if b[0]&2 == 0 {
				seq = cum + int64(int32(binary.BigEndian.Uint32(b[1:])))%(reorderSlots+64)
			}
			var a Ack
			var ok bool
			if b[0]&1 == 1 {
				if a, ok = r.onFin(3, seq); ok != (seq >= 0 && cum >= seq) {
					t.Fatalf("fin %d at cum %d: confirmed = %v", seq, cum, ok)
				}
				if ok && (a.EchoSeq != finAckEcho || a.CumAck != cum) {
					t.Fatalf("fin %d at cum %d: fin-ack %+v", seq, cum, a)
				}
			} else {
				a, ok = r.onData(mkHeader(seq), payloadFor(seq))
				if beyond := seq > cum && seq-cum >= reorderSlots; ok == beyond {
					t.Fatalf("seq %d at cum %d: acknowledged = %v", seq, cum, ok)
				}
				if !ok {
					dropped++
				}
				if r.BeyondWindow() != dropped {
					t.Fatalf("seq %d at cum %d: BeyondWindow() = %d, want %d", seq, cum, r.BeyondWindow(), dropped)
				}
				if ok {
					checkRecvAck(t, r, a, seq)
				}
			}
			if r.win.CumAck() < cum || len(r.slots) > reorderSlots {
				t.Fatalf("after seq %d: cum %d -> %d, %d ring slots", seq, cum, r.win.CumAck(), len(r.slots))
			}
		}
		want := make([]byte, 0, 8*r.win.CumAck())
		for seq := int64(0); seq < r.win.CumAck(); seq++ {
			want = append(want, payloadFor(seq)...)
		}
		if !bytes.Equal(out.Bytes(), want) || r.BytesWritten() != int64(len(want)) {
			t.Fatalf("wrote %d bytes (%d counted), want the %d of [0, %d)", out.Len(), r.BytesWritten(), len(want), r.win.CumAck())
		}
	})
}

// checkRecvAck checks the ACK answering data seq: the receiver's cumulative
// point, the echo, and at most 32 disjoint ascending ranges strictly above
// the cumulative point and inside the window.
func checkRecvAck(t *testing.T, r *Receiver, a Ack, seq int64) {
	t.Helper()
	cum := r.win.CumAck()
	if a.CumAck != cum || a.EchoSeq != seq || len(a.Ranges) > maxAckRanges {
		t.Fatalf("seq %d: ack cum %d echo %d with %d ranges; receiver cum %d", seq, a.CumAck, a.EchoSeq, len(a.Ranges), cum)
	}
	prev := cum
	for _, rg := range a.Ranges {
		if rg.Start <= prev || rg.End < rg.Start || rg.End-cum >= reorderSlots {
			t.Fatalf("seq %d: ranges %v at cum %d", seq, a.Ranges, cum)
		}
		prev = rg.End + 1
	}
}
