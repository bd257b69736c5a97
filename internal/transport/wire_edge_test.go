package transport

import (
	"reflect"
	"testing"
)

// maxAck builds an acknowledgment with the full 32 SACK ranges.
func maxAck() Ack {
	a := Ack{FlowID: 9, CumAck: 1000, EchoSeq: 4096, EchoNanos: 1 << 50}
	for i := 0; i < 32; i++ {
		start := int64(2000 + 10*i)
		a.Ranges = append(a.Ranges, AckRange{Start: start, End: start + 3})
	}
	return a
}

// TestAckMaxRangesFitsAckBuf pins the receiver's sizing assumption: a
// 32-range ACK (the documented maximum) must round-trip through the
// 1024-byte ackBuf Receiver.Run allocates.
func TestAckMaxRangesFitsAckBuf(t *testing.T) {
	a := maxAck()
	buf := make([]byte, 1024) // same capacity as Receiver.Run's ackBuf
	n := encodeAck(buf, a)
	if n > len(buf) {
		t.Fatalf("32-range ack needs %d bytes, receiver buffer holds %d", n, len(buf))
	}
	got, err := decodeAck(buf[:n], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", a, got)
	}
	// One range past the maximum must truncate to 32, not overflow.
	a.Ranges = append(a.Ranges, AckRange{Start: 9000, End: 9001})
	n = encodeAck(buf, a)
	got, err = decodeAck(buf[:n], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ranges) != 32 {
		t.Fatalf("encodeAck kept %d ranges, want the documented 32", len(got.Ranges))
	}
}

// TestZeroLengthFinalPayload covers the empty final chunk: a data packet
// may legally carry zero payload bytes and must round-trip.
func TestZeroLengthFinalPayload(t *testing.T) {
	buf := make([]byte, dataHeaderLen+MSS)
	n := encodeData(buf, 3, 77, 555, nil)
	if n != dataHeaderLen {
		t.Fatalf("zero-payload packet is %d bytes, want header-only %d", n, dataHeaderLen)
	}
	h, payload, err := decodeData(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.Seq != 77 || h.PayloadLen != 0 || len(payload) != 0 {
		t.Fatalf("zero-payload round-trip: %+v payload %d bytes", h, len(payload))
	}
}

// TestDecodeAckTruncatedEcho: an ACK cut anywhere inside its trailing echo
// fields (or its range list) must error, never mis-parse or panic.
func TestDecodeAckTruncatedEcho(t *testing.T) {
	a := maxAck()
	buf := make([]byte, 1024)
	n := encodeAck(buf, a)
	for cut := n - 1; cut >= 14; cut-- {
		if _, err := decodeAck(buf[:cut], nil); err == nil {
			t.Fatalf("decodeAck accepted an ack truncated to %d of %d bytes", cut, n)
		}
	}
	// Below the fixed header it must also reject.
	for cut := 13; cut >= 0; cut-- {
		if _, err := decodeAck(buf[:cut], nil); err == nil {
			t.Fatalf("decodeAck accepted a %d-byte fragment", cut)
		}
	}
}
