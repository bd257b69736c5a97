package transport

import (
	"io"
	"net"
	"sync"
	"time"

	"pcc/internal/core"
)

// Sender transmits a byte stream over UDP, paced at the rate the PCC
// controller chooses. It is the real-network counterpart of the simulator's
// RateSender: the identical core.PCC state machine and the identical
// sack.Board scoreboard drive both (§2.3 — deployment needs only a
// sender-side change). Byte accounting is size-accurate end to end: every
// packet — including the short final chunk — reports its true payload
// length to the monitor, which credits exactly that size when the ACK
// returns.
//
// Sender itself is only the real-time driver of a sendCore: a read loop
// feeding it ACKs, one pacing loop polling it and sleeping until it asks to
// be woken, the wall clock, and the one mutex the two loops share.
type Sender struct {
	conn UDPConn
	peer *net.UDPAddr

	mu    sync.Mutex // guards core
	core  *sendCore
	start time.Time

	doneCh chan struct{} // closed by the pacing loop alone, once all data is acknowledged
	// kick wakes the pacing loop early when an ACK finishes the data or
	// confirms the FIN. Capacity 1: a pending wake-up covers any later one.
	kick chan struct{}
}

// NewSender chunks the contents of r into packets and prepares a sender
// with the given PCC configuration. The whole flow is buffered in memory —
// these tools move files, like the paper's prototype. A config that leaves
// PacketSize unset gets the wire's 1400-byte payload budget, with its
// InitialRate scaled by 1400/1500 to match (core.DefaultConfig derives it
// for 1500-byte packets; the rate floor follows PacketSize); pin PacketSize
// for an exact InitialRate.
func NewSender(conn UDPConn, peer *net.UDPAddr, cfg core.Config, r io.Reader) (*Sender, error) {
	c, err := newSendCore(cfg, r)
	if err != nil {
		return nil, err
	}
	return &Sender{conn: conn, peer: peer, core: c, doneCh: make(chan struct{}), kick: make(chan struct{}, 1)}, nil
}

// Done is closed when every packet has been acknowledged.
func (s *Sender) Done() <-chan struct{} { return s.doneCh }

// Stats returns (packets sent, retransmissions).
func (s *Sender) Stats() (sent, rtx int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.sent, s.core.rtx
}

// ByteStats returns the sender's byte ledger: payload bytes over all
// transmissions, the retransmitted subset, and the bytes acknowledged so
// far (each sequence counted once). When the flow completes,
// sent − rtx == acked == the flow's length — the cross-check the loopback
// harness runs against the receiver's BytesWritten.
func (s *Sender) ByteStats() (sent, rtx, acked int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.sentBytes, s.core.rtxBytes, s.core.ackedBytes
}

// Rate returns the controller's current rate in bytes/s.
func (s *Sender) Rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.pcc.Rate(s.now())
}

func (s *Sender) now() float64 { return time.Since(s.start).Seconds() }

// Run transmits until the flow is fully acknowledged and its FIN confirmed,
// a retry budget is exhausted (a *RetryExceededError), or the socket fails.
func (s *Sender) Run() error {
	s.mu.Lock()
	s.start = time.Now()
	s.mu.Unlock()
	go s.ackLoop()

	pktBuf := make([]byte, dataHeaderLen+MSS)
	timer := time.NewTimer(0)
	defer timer.Stop()
	announced := false
	for {
		s.mu.Lock()
		n, wakeAt := s.core.Poll(s.now(), pktBuf)
		dataDone, finished, err := s.core.dataDone(), s.core.finished(), s.core.err
		s.mu.Unlock()
		if dataDone && !announced {
			announced = true
			close(s.doneCh)
		}
		if finished {
			return err
		}
		if n > 0 {
			if _, err := s.conn.WriteToUDP(pktBuf[:n], s.peer); err != nil {
				if dataDone {
					// The socket closed under the FIN handshake; the flow
					// itself is already fully acknowledged, so that is
					// success, not failure.
					return nil
				}
				return err
			}
		}
		if wait := wakeAt - s.now(); wait > 0 {
			timer.Reset(time.Duration(wait * 1e9))
			select {
			case <-timer.C:
			case <-s.kick:
			}
		}
	}
}

// ackLoop ingests acknowledgments until the socket closes.
func (s *Sender) ackLoop() {
	buf := make([]byte, 2048)
	var ranges []AckRange // decode scratch, reused across datagrams
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		a, err := decodeAck(buf[:n], ranges)
		if err != nil {
			continue
		}
		ranges = a.Ranges
		s.mu.Lock()
		s.core.OnAck(a, s.now())
		wake := s.core.dataDone()
		s.mu.Unlock()
		if wake {
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}
}
