// Package transport is a user-space reliable transport over UDP driven by
// the PCC controller from internal/core — the analogue of the paper's
// UDT-based prototype (§3). The sender paces MSS-sized data packets at the
// rate PCC chooses, the receiver answers each with a selective
// acknowledgment, and the monitor module aggregates them into per-MI metrics
// for the controller. Both sides keep their ledger in internal/sack, as the
// simulator's sender and receiver do: the sender a sack.Board, the receiver
// a sack.RecvWindow and a bounded ring of out-of-order payloads. No kernel
// support, router support or receiver intelligence is needed (§2.3): the
// receiver only echoes what it saw.
//
// Wire format (all integers big-endian):
//
//	data packet:  type(1)=0x01 | flowID(4) | seq(8) | sentNanos(8) | payloadLen(2) | payload
//	ack packet:   type(1)=0x02 | flowID(4) | cumAck(8) | nRanges(1) |
//	              nRanges × { startSeq(8) | endSeq(8) } |
//	              echoSeq(8) | echoSentNanos(8)
//	fin packet:   type(1)=0x03 | flowID(4) | totalPkts(8)
//
// The echo fields carry the most recently received packet's seq and send
// timestamp so the sender can measure RTT without keeping per-packet clocks
// synchronized.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
)

// UDPConn is the socket surface Sender and Receiver need: the two datagram
// calls of *net.UDPConn. Tests substitute in-process lossy/reordering
// wrappers (see lossyconn_test.go) to harden the transport against the
// pathologies real networks produce — dropped FINs, reordered data,
// spurious tail timeouts — without leaving the process or the seed.
type UDPConn interface {
	ReadFromUDP(b []byte) (int, *net.UDPAddr, error)
	WriteToUDP(b []byte, addr *net.UDPAddr) (int, error)
}

var _ UDPConn = (*net.UDPConn)(nil)

// Packet type bytes.
const (
	typeData byte = 0x01
	typeAck  byte = 0x02
	typeFin  byte = 0x03
)

// finAckEcho is the EchoSeq sentinel marking an ack as the receiver's answer
// to a FIN rather than to a data packet. Data echoes are always >= 0, so the
// sentinel cannot collide; the uint64 cast in encodeAck round-trips negative
// values exactly.
const finAckEcho int64 = -2

// MSS is the data payload budget per packet. Headers add 23 bytes; the
// default keeps total under a typical 1500-byte MTU.
const MSS = 1400

const dataHeaderLen = 1 + 4 + 8 + 8 + 2

// AckRange is a contiguous run of received sequence numbers [Start, End].
type AckRange struct {
	Start, End int64
}

// DataHeader is a decoded data-packet header.
type DataHeader struct {
	FlowID     uint32
	Seq        int64
	SentNanos  int64
	PayloadLen int
}

// Ack is a decoded acknowledgment.
type Ack struct {
	FlowID    uint32
	CumAck    int64
	Ranges    []AckRange
	EchoSeq   int64
	EchoNanos int64
}

// encodeData writes a data packet into buf and returns the packet length.
// buf must have room for dataHeaderLen+len(payload) bytes.
func encodeData(buf []byte, flowID uint32, seq, sentNanos int64, payload []byte) int {
	buf[0] = typeData
	binary.BigEndian.PutUint32(buf[1:], flowID)
	binary.BigEndian.PutUint64(buf[5:], uint64(seq))
	binary.BigEndian.PutUint64(buf[13:], uint64(sentNanos))
	binary.BigEndian.PutUint16(buf[21:], uint16(len(payload)))
	copy(buf[dataHeaderLen:], payload)
	return dataHeaderLen + len(payload)
}

// decodeData parses a data packet.
func decodeData(b []byte) (DataHeader, []byte, error) {
	if len(b) < dataHeaderLen || b[0] != typeData {
		return DataHeader{}, nil, errors.New("transport: short or mistyped data packet")
	}
	h := DataHeader{
		FlowID:     binary.BigEndian.Uint32(b[1:]),
		Seq:        int64(binary.BigEndian.Uint64(b[5:])),
		SentNanos:  int64(binary.BigEndian.Uint64(b[13:])),
		PayloadLen: int(binary.BigEndian.Uint16(b[21:])),
	}
	if len(b) < dataHeaderLen+h.PayloadLen {
		return DataHeader{}, nil, fmt.Errorf("transport: truncated payload: have %d want %d", len(b)-dataHeaderLen, h.PayloadLen)
	}
	return h, b[dataHeaderLen : dataHeaderLen+h.PayloadLen], nil
}

// maxAckRanges is how many ranges one ACK carries.
const maxAckRanges = 32

// encodeAck writes an acknowledgment into buf, truncating ranges to what
// fits, and returns the packet length.
func encodeAck(buf []byte, a Ack) int {
	n := min(len(a.Ranges), maxAckRanges)
	buf[0] = typeAck
	binary.BigEndian.PutUint32(buf[1:], a.FlowID)
	binary.BigEndian.PutUint64(buf[5:], uint64(a.CumAck))
	buf[13] = byte(n)
	off := 14
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(buf[off:], uint64(a.Ranges[i].Start))
		binary.BigEndian.PutUint64(buf[off+8:], uint64(a.Ranges[i].End))
		off += 16
	}
	binary.BigEndian.PutUint64(buf[off:], uint64(a.EchoSeq))
	binary.BigEndian.PutUint64(buf[off+8:], uint64(a.EchoNanos))
	return off + 16
}

// decodeAck parses an acknowledgment. The ranges are decoded into scratch's
// backing array (nil allocates), so a caller that passes the previous Ack's
// Ranges back in decodes a stream of ACKs without allocating; the returned
// Ack is then valid until the next call.
func decodeAck(b []byte, scratch []AckRange) (Ack, error) {
	if len(b) < 14 || b[0] != typeAck {
		return Ack{}, errors.New("transport: short or mistyped ack")
	}
	a := Ack{
		FlowID: binary.BigEndian.Uint32(b[1:]),
		CumAck: int64(binary.BigEndian.Uint64(b[5:])),
		Ranges: scratch[:0],
	}
	n := int(b[13])
	off := 14
	if len(b) < off+16*n+16 {
		return Ack{}, errors.New("transport: truncated ack ranges")
	}
	for i := 0; i < n; i++ {
		a.Ranges = append(a.Ranges, AckRange{
			Start: int64(binary.BigEndian.Uint64(b[off:])),
			End:   int64(binary.BigEndian.Uint64(b[off+8:])),
		})
		off += 16
	}
	a.EchoSeq = int64(binary.BigEndian.Uint64(b[off:]))
	a.EchoNanos = int64(binary.BigEndian.Uint64(b[off+8:]))
	return a, nil
}

// encodeFin writes a fin packet announcing the flow length.
func encodeFin(buf []byte, flowID uint32, totalPkts int64) int {
	buf[0] = typeFin
	binary.BigEndian.PutUint32(buf[1:], flowID)
	binary.BigEndian.PutUint64(buf[5:], uint64(totalPkts))
	return 13
}

// decodeFin parses a fin packet.
func decodeFin(b []byte) (flowID uint32, totalPkts int64, err error) {
	if len(b) < 13 || b[0] != typeFin {
		return 0, 0, errors.New("transport: short or mistyped fin")
	}
	return binary.BigEndian.Uint32(b[1:]), int64(binary.BigEndian.Uint64(b[5:])), nil
}
