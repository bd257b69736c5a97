package transport

import (
	"bytes"
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
