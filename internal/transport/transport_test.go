package transport

import (
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pcc/internal/core"
)

func TestWireDataRoundTrip(t *testing.T) {
	buf := make([]byte, dataHeaderLen+MSS)
	payload := []byte("hello pcc")
	n := encodeData(buf, 7, 42, 12345, payload)
	h, got, err := decodeData(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.FlowID != 7 || h.Seq != 42 || h.SentNanos != 12345 || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip mismatch: %+v %q", h, got)
	}
}

func TestWireAckRoundTripQuick(t *testing.T) {
	f := func(flow uint32, cum int64, starts []int64, echoSeq, echoNanos int64) bool {
		if cum < 0 {
			cum = -cum
		}
		a := Ack{FlowID: flow, CumAck: cum, EchoSeq: echoSeq, EchoNanos: echoNanos}
		for i, s := range starts {
			if i >= 32 {
				break
			}
			if s < 0 {
				s = -s
			}
			a.Ranges = append(a.Ranges, AckRange{Start: s, End: s + int64(i)})
		}
		buf := make([]byte, 2048)
		n := encodeAck(buf, a)
		got, err := decodeAck(buf[:n], nil)
		if err != nil {
			return false
		}
		if len(a.Ranges) == 0 {
			a.Ranges = nil
		}
		return reflect.DeepEqual(a, got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWireDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := decodeData([]byte{typeAck, 0}); err == nil {
		t.Error("decodeData accepted an ack")
	}
	if _, err := decodeAck([]byte{typeData}, nil); err == nil {
		t.Error("decodeAck accepted a short packet")
	}
	if _, _, err := decodeFin([]byte{typeFin, 0}); err == nil {
		t.Error("decodeFin accepted a short packet")
	}
}

// TestLoopbackTransfer moves ~300 KB over real loopback UDP with the PCC
// controller pacing and verifies byte-exact delivery.
func TestLoopbackTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback transfer uses wall-clock time")
	}
	rng := rand.New(rand.NewSource(99))
	data := make([]byte, 300*1024)
	rng.Read(data)

	recvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer recvConn.Close()
	sendConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sendConn.Close()

	var out bytes.Buffer
	recv := NewReceiver(recvConn, &out)
	go recv.Run()

	cfg := core.DefaultConfig(0.002)
	cfg.InitialRate = 5e6 // 40 Mbps start keeps the test fast on loopback
	s, err := NewSender(sendConn, recvConn.LocalAddr().(*net.UDPAddr), cfg, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Run() }()

	select {
	case <-s.Done():
	case err := <-errCh:
		t.Fatalf("sender exited early: %v", err)
	case <-time.After(30 * time.Second):
		sent, rtx := s.Stats()
		t.Fatalf("transfer timed out: sent=%d rtx=%d recvUniq=%d", sent, rtx, recv.UniquePackets())
	}
	select {
	case <-recv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not observe completion")
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("payload corrupted: got %d bytes want %d", out.Len(), len(data))
	}
	sent, rtx := s.Stats()
	t.Logf("transferred %d bytes in %d packets (%d rtx), final rate %.1f Mbps",
		len(data), sent, rtx, s.Rate()*8/1e6)
}
