package transport

import (
	"math/rand"
	"net"
	"sync"
)

// lossyConn wraps a UDPConn and applies deterministic (seeded) datagram
// loss and reordering on the write side — an in-process stand-in for a
// misbehaving network path. Reordering holds a datagram back and releases
// it after the next write, swapping adjacent packets, which is exactly the
// pattern that trips naive SACK-gap detection into spurious retransmits.
type lossyConn struct {
	UDPConn
	mu      sync.Mutex
	rng     *rand.Rand
	drop    float64 // per-datagram drop probability
	reorder float64 // probability of holding a datagram behind the next one

	held     []byte
	heldAddr *net.UDPAddr
	dropped  int64
	swapped  int64
}

func newLossyConn(inner UDPConn, seed int64, drop, reorder float64) *lossyConn {
	return &lossyConn{UDPConn: inner, rng: rand.New(rand.NewSource(seed)), drop: drop, reorder: reorder}
}

func (c *lossyConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() < c.drop {
		c.dropped++
		return len(b), nil // swallowed by the "network"
	}
	if c.held != nil {
		// Release pattern: current datagram first, then the held one —
		// adjacent swap.
		if _, err := c.UDPConn.WriteToUDP(b, addr); err != nil {
			return 0, err
		}
		held, heldAddr := c.held, c.heldAddr
		c.held, c.heldAddr = nil, nil
		c.swapped++
		return c.UDPConn.WriteToUDP(held, heldAddr)
	}
	if c.rng.Float64() < c.reorder {
		c.held = append([]byte(nil), b...)
		c.heldAddr = addr
		return len(b), nil
	}
	return c.UDPConn.WriteToUDP(b, addr)
}

// counts returns the datagrams dropped and swapped so far. The sender may
// still be writing (a FIN repeated after a lost fin-ack), so reads lock.
func (c *lossyConn) counts() (dropped, swapped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped, c.swapped
}

// finDropConn swallows the first n FIN datagrams, passing everything else
// through untouched — the targeted failure the FIN retransmission timer
// must survive.
type finDropConn struct {
	UDPConn
	mu    sync.Mutex
	drops int
	seen  int64
}

func (c *finDropConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	c.mu.Lock()
	if len(b) > 0 && b[0] == typeFin {
		c.seen++
		if c.drops > 0 {
			c.drops--
			c.mu.Unlock()
			return len(b), nil
		}
	}
	c.mu.Unlock()
	return c.UDPConn.WriteToUDP(b, addr)
}

func (c *finDropConn) finsSeen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}
