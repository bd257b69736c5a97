// Package sack is the reliability ledger all three senders and both
// receivers build on — the simulator's cc.RateSender, cc.WindowSender and
// cc.Receiver and the real-UDP transport.Sender and transport.Receiver — as a
// leaf package, so the shipped transport does not link the simulator. Board
// is the sender's scoreboard, seqWindow the ring under it; RecvWindow is the
// receiver's bitmap of what arrived.
//
// The senders' contract, written down once for every caller: an ack can
// only touch a sequence that was sent and is not yet cumulatively
// acknowledged, the dense range [CumAck, Next). Anything else (a duplicate,
// a corrupt or forged ACK) finds no entry and changes nothing.
package sack

// Entry tracks one outstanding data packet at the sender. Its sequence
// number is its position in the window, not a field.
type Entry struct {
	SentAt   float64 // time of the most recent (re)transmission
	Attempts int32   // retransmissions so far (the first send is not counted)
	Sacked   bool
	Lost     bool
}

// seqWinMinSlots is the ring's first allocation, in entries.
const seqWinMinSlots = 64

// seqWindow tracks the outstanding packets of one sender. Senders add
// sequences contiguously and detach them from the head as the cumulative ACK
// advances, so the tracked set is always the dense range [base, next):
// entries live by value in one power-of-two ring indexed seq & mask (the
// idiom of core.miRing and RecvWindow), a lookup is a bounds check and one
// indexed load, and the ring allocates only when the window outgrows it.
// Entry is pointer-free, so the ring costs the GC nothing to scan and its
// stores need no write barrier.
//
// A *Entry returned by add, lookup or at points into the ring and is valid
// only until the next add (which may grow the ring): callers finish with it
// before handing control to anything that can send.
type seqWindow struct {
	ring       []Entry // len is 0 or a power of two
	base, next int64   // tracked sequences; empty iff base == next
	unsacked   int     // entries in [base, next) not yet SACKed
}

// add starts tracking the next sequence (callers add in transmission order,
// one past the previous add) and returns its zeroed entry.
func (w *seqWindow) add() *Entry {
	if int(w.next-w.base) == len(w.ring) {
		w.grow()
	}
	st := &w.ring[w.next&int64(len(w.ring)-1)]
	*st = Entry{}
	w.next++
	w.unsacked++
	return st
}

// grow doubles the ring, re-placing live entries under the new mask.
func (w *seqWindow) grow() {
	old := w.ring
	w.ring = make([]Entry, max(seqWinMinSlots, 2*len(old)))
	oldMask, mask := int64(len(old)-1), int64(len(w.ring)-1)
	for seq := w.base; seq < w.next; seq++ {
		w.ring[seq&mask] = old[seq&oldMask]
	}
}

// at returns the entry of a tracked sequence (base <= seq < next).
func (w *seqWindow) at(seq int64) *Entry {
	return &w.ring[seq&int64(len(w.ring)-1)]
}

// lookup returns the entry tracking seq, or nil.
func (w *seqWindow) lookup(seq int64) *Entry {
	if seq < w.base || seq >= w.next {
		return nil
	}
	return w.at(seq)
}

// markSacked records the SACK of a tracked, not yet SACKed entry.
func (w *seqWindow) markSacked(st *Entry) {
	st.Sacked = true
	w.unsacked--
}

// headBelow reports whether the oldest tracked entry exists and has a
// sequence below seq (the head-advance loop condition).
func (w *seqWindow) headBelow(seq int64) bool {
	return w.base < w.next && w.base < seq
}

// popHead stops tracking the oldest sequence and returns it with its final
// state.
func (w *seqWindow) popHead() (int64, Entry) {
	seq := w.base
	st := *w.at(seq)
	if !st.Sacked {
		w.unsacked--
	}
	w.base++
	return seq, st
}

// reset empties the window for a new flow; the ring is retained.
func (w *seqWindow) reset() {
	w.base, w.next = 0, 0
	w.unsacked = 0
}
