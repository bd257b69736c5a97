package netem

// PacketPool is a free list of Packets. It is deliberately not a sync.Pool:
// each simulation engine owns exactly one PacketPool and every Get/Put
// happens on that engine's goroutine, so recycling is allocation-free,
// deterministic, and never crosses goroutines even when many engines run in
// parallel (see internal/exp's worker pool).
//
// A nil *PacketPool is valid: Get falls back to the heap and Put discards,
// so components can take an optional pool without nil checks.
type PacketPool struct {
	free   []*Packet
	missed int // Gets that fell through to the heap
}

// Get returns a zeroed packet, recycling one if available.
func (pl *PacketPool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return p
	}
	pl.missed++
	return &Packet{}
}

// Put recycles a packet the caller has finished with. The packet must not
// be referenced again: the next Get may hand it out. Double-Put is a caller
// bug (the list does not deduplicate).
func (pl *PacketPool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	*p = Packet{}
	pl.free = append(pl.free, p)
}

// Size returns the number of packets currently parked in the free list.
func (pl *PacketPool) Size() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}
