package transport

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"pcc/internal/core"
)

// loopbackPair binds two UDP sockets on 127.0.0.1 and returns them plus the
// receiver's address.
func loopbackPair(t *testing.T) (send, recv *net.UDPConn, peer *net.UDPAddr) {
	t.Helper()
	recvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recvConn.Close() })
	sendConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sendConn.Close() })
	return sendConn, recvConn, recvConn.LocalAddr().(*net.UDPAddr)
}

// TestLossyLoopbackTelemetry is the transport integration harness: a
// transfer over a dropping AND reordering path must complete, deliver the
// exact bytes, and keep the sender's byte ledger consistent with the
// receiver's — sent − rtx == acked == BytesWritten == flow length. The
// loss/reorder processes are seeded, so failures reproduce.
func TestLossyLoopbackTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback transfer uses wall-clock time")
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 400*1024+137) // short final chunk on purpose
	rng.Read(data)

	sendConn, recvConn, peer := loopbackPair(t)
	// Loss and reordering on the data path, loss on the ACK path.
	dataSide := newLossyConn(sendConn, 21, 0.05, 0.05)
	ackSide := newLossyConn(recvConn, 22, 0.05, 0)

	var out bytes.Buffer
	recv := NewReceiver(ackSide, &out)
	go recv.Run()

	// The loss-resilient utility tolerates the injected random loss; the
	// safe utility's 5% sigmoid cut-off would pin the rate to the floor.
	cfg := core.HeavyLossConfig(0.002)
	cfg.InitialRate = 5e6
	s, err := NewSender(dataSide, peer, cfg, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Run() }()

	select {
	case <-s.Done():
	case err := <-errCh:
		t.Fatalf("sender exited early: %v", err)
	case <-time.After(60 * time.Second):
		sent, rtx := s.Stats()
		t.Fatalf("transfer timed out: sent=%d rtx=%d recvUniq=%d", sent, rtx, recv.UniquePackets())
	}
	select {
	case <-recv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("receiver did not observe completion (FIN retransmission failed?)")
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("payload corrupted: got %d bytes want %d", out.Len(), len(data))
	}

	sentB, rtxB, ackedB := s.ByteStats()
	flowLen := int64(len(data))
	if ackedB != flowLen {
		t.Errorf("acked bytes %d, want flow length %d", ackedB, flowLen)
	}
	if sentB-rtxB != flowLen {
		t.Errorf("sent(%d) - rtx(%d) = %d bytes, want flow length %d (first transmissions must cover the flow exactly once)",
			sentB, rtxB, sentB-rtxB, flowLen)
	}
	if got := recv.BytesWritten(); got != flowLen {
		t.Errorf("receiver wrote %d bytes, want %d", got, flowLen)
	}
	dataDrops, swaps := dataSide.counts()
	ackDrops, _ := ackSide.counts()
	if dataDrops == 0 {
		t.Error("lossy conn dropped nothing: the harness exercised no loss")
	}
	if rtxB == 0 {
		t.Error("no bytes were retransmitted despite data-path loss")
	}
	t.Logf("sent=%dB rtx=%dB acked=%dB drops(data=%d ack=%d) swaps=%d",
		sentB, rtxB, ackedB, dataDrops, ackDrops, swaps)
}

// TestFinRetransmitSurvivesLoss proves the FIN hardening: the first five
// FIN datagrams are swallowed, and the receiver still learns the flow
// length from a retransmitted copy instead of stranding Done forever.
func TestFinRetransmitSurvivesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback transfer uses wall-clock time")
	}
	data := make([]byte, 40*1024)
	rand.New(rand.NewSource(3)).Read(data)

	sendConn, recvConn, peer := loopbackPair(t)
	dataSide := &finDropConn{UDPConn: sendConn, drops: 5}

	var out bytes.Buffer
	recv := NewReceiver(recvConn, &out)
	go recv.Run()

	cfg := core.DefaultConfig(0.002)
	cfg.InitialRate = 5e6
	s, err := NewSender(dataSide, peer, cfg, bytes.NewReader(data))
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
		t.Fatal("transfer timed out")
	}
	select {
	case <-recv.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("receiver stranded: %d FINs seen by the dropper, none got through?", dataSide.finsSeen())
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("payload corrupted: got %d bytes want %d", out.Len(), len(data))
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	if seen := dataSide.finsSeen(); seen < 6 {
		t.Errorf("only %d FINs sent; the retransmission timer never fired", seen)
	}
}
