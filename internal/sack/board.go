package sack

// DupThresh is the SACK reordering threshold: a packet is declared lost once
// this many sequences above it have been SACKed (the SACK analogue of
// triple-duplicate-ACK).
const DupThresh = 3

// Board is one sender's SACK scoreboard: the window of outstanding packets,
// the SACK-gap loss detector and the retransmission FIFO. Senders keep only
// what differs between them — when to send, which timer rescues a tail,
// which algorithm hook fires — and drive the board with closure-free calls
// (loops over HeadBelow/PopHead, NextGapLoss, NextOutstanding), so the
// per-packet path allocates nothing. The zero Board is ready to use; a
// *Entry it returns is valid until the next Pick.
type Board struct {
	win seqWindow
	// sackHigh is the highest sequence SACKed so far; it never passes
	// Next()-1. Its zero start finds the same losses a -1 would: nothing is
	// examined until it reaches DupThresh.
	sackHigh int64
	// lossScan: sequences below it have been examined by the gap detector.
	lossScan int64
	// rtxQ[rtxHead:] is the retransmission FIFO. Consuming by index instead
	// of re-slicing the front keeps the backing array's capacity: a
	// front-sliced queue strands its consumed prefix, so in steady state
	// (queue near-empty, head at the end of the backing) every push
	// allocates a fresh array — one allocation per detected loss.
	rtxQ    []int64
	rtxHead int
}

// Reset empties the board for a new flow; the ring and the FIFO's backing
// array are retained.
func (b *Board) Reset() {
	b.win.reset()
	b.sackHigh, b.lossScan = 0, 0
	b.rtxQ, b.rtxHead = b.rtxQ[:0], 0
}

// Next returns the next fresh sequence: every sequence below it has been
// sent at least once.
func (b *Board) Next() int64 { return b.win.next }

// CumAck returns the cumulative point: every sequence below it is
// acknowledged and no longer tracked.
func (b *Board) CumAck() int64 { return b.win.base }

// Outstanding returns the number of tracked sequences not yet SACKed.
func (b *Board) Outstanding() int { return b.win.unsacked }

// HasRtx reports whether a retransmission is queued.
func (b *Board) HasRtx() bool { return b.rtxHead < len(b.rtxQ) }

// CanSend reports whether Pick(·, limit) has anything to return.
func (b *Board) CanSend(limit int64) bool { return b.HasRtx() || b.win.next < limit }

// Lookup returns the entry tracking seq, or nil when seq lies outside
// [CumAck, Next) — never sent, or already cumulatively acknowledged.
func (b *Board) Lookup(seq int64) *Entry { return b.win.lookup(seq) }

// Pick chooses what to transmit at time now and stamps its entry: the oldest
// queued retransmission still worth sending (rtx true, Attempts counted),
// else the next fresh sequence below limit, else -1.
func (b *Board) Pick(now float64, limit int64) (seq int64, rtx bool) {
	for b.rtxHead < len(b.rtxQ) {
		cand := b.rtxQ[b.rtxHead]
		b.rtxHead++
		if b.rtxHead == len(b.rtxQ) {
			b.rtxQ, b.rtxHead = b.rtxQ[:0], 0
		}
		// A queued sequence may have been SACKed or cumulatively
		// acknowledged since it was declared lost.
		if e := b.win.lookup(cand); e != nil && e.Lost && !e.Sacked {
			e.Lost = false
			e.Attempts++
			e.SentAt = now
			return cand, true
		}
	}
	if b.win.next >= limit {
		return -1, false
	}
	b.win.add().SentAt = now
	return b.win.next - 1, false
}

// Sack records a selective acknowledgment of seq and returns the entry when
// it is the first for a tracked sequence, nil otherwise. A sequence never
// sent is ignored outright, so sackHigh cannot run ahead of the data and
// declare unsent packets lost.
func (b *Board) Sack(seq int64) *Entry {
	if seq >= b.win.next {
		return nil
	}
	if seq > b.sackHigh {
		b.sackHigh = seq
	}
	if e := b.win.lookup(seq); e != nil && !e.Sacked {
		b.win.markSacked(e)
		return e
	}
	return nil
}

// Clamp intersects the inclusive range [start, end] with the tracked window
// (empty when the result has start > end), so iterating a received SACK
// range costs what was sent, not what the wire claimed.
func (b *Board) Clamp(start, end int64) (int64, int64) {
	return max(start, b.win.base), min(end, b.win.next-1)
}

// HeadBelow is the loop condition of a cumulative advance to cum. It is
// false once the window is empty: cum cannot acknowledge what was never sent.
func (b *Board) HeadBelow(cum int64) bool { return b.win.headBelow(cum) }

// PopHead stops tracking the oldest sequence and returns it with its final
// state; Sacked is false when only the cumulative ACK proves its delivery.
func (b *Board) PopHead() (int64, Entry) { return b.win.popHead() }

// NextGapLoss steps the SACK-gap loss detector: it declares the next
// un-SACKed sequence at least DupThresh below sackHigh lost (MarkLost) and
// returns it, or -1 when the scan is complete. Each sequence is examined
// once: lossScan is monotone outside LoseAll.
func (b *Board) NextGapLoss() int64 {
	if b.sackHigh-DupThresh < b.lossScan {
		return -1
	}
	return b.scanGap()
}

func (b *Board) scanGap() int64 {
	limit := b.sackHigh - DupThresh
	for seq := max(b.lossScan, b.win.base); seq <= limit; seq++ {
		if e := b.win.at(seq); !e.Sacked && !e.Lost {
			b.lossScan = seq + 1
			b.MarkLost(seq)
			return seq
		}
	}
	b.lossScan = limit + 1
	return -1
}

// NextOutstanding returns the first tracked sequence at or above from that
// is neither SACKed nor declared lost, with its entry, or (-1, nil): the
// sweep a tail timer runs to find packets old enough to presume lost.
func (b *Board) NextOutstanding(from int64) (int64, *Entry) {
	for seq := max(from, b.win.base); seq < b.win.next; seq++ {
		if e := b.win.at(seq); !e.Sacked && !e.Lost {
			return seq, e
		}
	}
	return -1, nil
}

// MarkLost declares a tracked sequence lost and queues its retransmission.
func (b *Board) MarkLost(seq int64) {
	b.win.at(seq).Lost = true
	b.rtxQ = append(b.rtxQ, seq)
}

// LoseAll is the retransmission-timeout verdict: every un-SACKed tracked
// sequence is presumed lost and queued afresh, in order, and the gap
// detector re-examines nothing until new SACK evidence arrives.
func (b *Board) LoseAll() {
	b.rtxQ, b.rtxHead = b.rtxQ[:0], 0
	for seq := b.win.base; seq < b.win.next; seq++ {
		if !b.win.at(seq).Sacked {
			b.MarkLost(seq)
		}
	}
	b.lossScan = b.win.next
}
