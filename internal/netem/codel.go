package netem

import "math"

// CoDel implements the Controlled Delay AQM (Nichols & Jacobson, ACM Queue
// 2012), the algorithm behind the Linux codel qdisc referenced in §4.4.1.
//
// CoDel measures each packet's sojourn time at dequeue. When sojourn stays
// above codelTarget for at least codelInterval, CoDel enters a dropping state
// and drops packets at increasing frequency (the control law spaces drops by
// codelInterval/sqrt(count)) until sojourn falls below codelTarget.
type CoDel struct {
	q fifo
	// CapBytes bounds the physical queue (CoDel still needs a hard limit);
	// negative means unlimited.
	CapBytes int
	// Pool, when set, recycles packets dropped at dequeue time by the
	// control law (enqueue-time rejections are recycled by the Link).
	Pool *PacketPool

	drops      int64
	dropBytes  int64
	dropping   bool
	firstAbove float64 // time at which dropping may begin; 0 = sojourn not above target
	dropNext   float64 // time of next scheduled drop while dropping
	dropCount  int     // drops since entering dropping state
}

// The standard CoDel parameters: the acceptable standing queue delay and
// the sliding-window width, seconds.
const (
	codelTarget   = 0.005
	codelInterval = 0.100
)

// NewCoDel returns a CoDel queue with the standard 5 ms / 100 ms parameters
// and the given physical byte capacity (negative = unlimited).
func NewCoDel(capBytes int) *CoDel {
	return &CoDel{CapBytes: capBytes}
}

// Reset implements Queue; the control law returns to its initial state.
func (c *CoDel) Reset(capBytes int, pool *PacketPool) {
	c.usePool(pool)
	c.q.drain(pool)
	c.CapBytes = capBytes
	c.drops, c.dropBytes = 0, 0
	c.dropping = false
	c.firstAbove, c.dropNext = 0, 0
	c.dropCount = 0
}

// usePool implements Queue.
func (c *CoDel) usePool(pool *PacketPool) { c.Pool = pool }

// Enqueue implements Queue.
func (c *CoDel) Enqueue(p *Packet, now float64) bool {
	if c.q.count > 0 && c.CapBytes >= 0 && c.q.bytes+p.Size > c.CapBytes {
		c.drops++
		c.dropBytes += int64(p.Size)
		return false
	}
	p.Enq = now
	c.q.push(p)
	return true
}

// shouldDrop applies the sojourn-time test to packet p at time now.
func (c *CoDel) shouldDrop(p *Packet, now float64) bool {
	sojourn := now - p.Enq
	if sojourn < codelTarget || c.q.bytes < 2*1500 {
		// Below target (or queue nearly empty): leave the
		// dropping-eligibility window.
		c.firstAbove = 0
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + codelInterval
		return false
	}
	return now >= c.firstAbove
}

// Dequeue implements Queue. It may drop packets internally and returns the
// first surviving packet (or nil).
func (c *CoDel) Dequeue(now float64) *Packet {
	p := c.q.pop()
	if p == nil {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !c.shouldDrop(p, now) {
			c.dropping = false
			return p
		}
		for now >= c.dropNext && c.dropping {
			c.drops++
			c.dropBytes += int64(p.Size)
			c.dropCount++
			c.Pool.Put(p)
			p = c.q.pop()
			if p == nil {
				c.dropping = false
				return nil
			}
			if !c.shouldDrop(p, now) {
				c.dropping = false
				return p
			}
			c.dropNext += codelInterval / math.Sqrt(float64(c.dropCount))
		}
		return p
	}
	if c.shouldDrop(p, now) {
		// Enter dropping state: drop this packet and arm the control law.
		c.drops++
		c.dropBytes += int64(p.Size)
		c.Pool.Put(p)
		p2 := c.q.pop()
		c.dropping = true
		// Resume from the previous drop frequency if we re-enter quickly
		// (the "count decay" refinement from the reference pseudocode).
		// 8*codelInterval folds to the float64 the run-time product gave:
		// scaling by a power of two is exact.
		if c.dropCount > 2 && now-c.dropNext < 8*codelInterval {
			c.dropCount -= 2
		} else {
			c.dropCount = 1
		}
		c.dropNext = now + codelInterval/math.Sqrt(float64(c.dropCount))
		return p2
	}
	return p
}

// Len implements Queue.
func (c *CoDel) Len() int { return c.q.count }

// Bytes implements Queue.
func (c *CoDel) Bytes() int { return c.q.bytes }

// Dropped implements Queue.
func (c *CoDel) Dropped() int64 { return c.drops }

// DroppedBytes implements Queue.
func (c *CoDel) DroppedBytes() int64 { return c.dropBytes }
