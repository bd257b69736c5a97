package sack

import "math/bits"

// RecvWindow is a receiver's ledger: the cumulative point (every sequence
// below it has arrived) and a windowed bitmap of the sequences above it that
// arrived out of order. All stored sequences lie in a window of at most
// capBits() above the cumulative point, so a sequence's slot is just
// seq mod capacity — one word load per membership test instead of a map
// probe. The window grows (power of two, reindexing the rare resident bits)
// when a sender races further ahead of the cumulative point; a caller facing
// untrusted input bounds how far ahead it lets a sequence land before Add.
// The zero RecvWindow is ready to use and expects sequence 0 first.
type RecvWindow struct {
	words []uint64
	cum   int64 // next expected in-order sequence
}

// CumAck returns the next expected in-order sequence: every sequence below
// it has arrived.
func (w *RecvWindow) CumAck() int64 { return w.cum }

// Add records the arrival of seq and reports whether it is fresh (not below
// the cumulative point, not already recorded). An in-order arrival advances
// the cumulative point through every buffered successor.
func (w *RecvWindow) Add(seq int64) (fresh bool) {
	switch {
	case seq == w.cum:
		w.cum++
		for w.has(w.cum) {
			w.clear(w.cum)
			w.cum++
		}
		return true
	case seq > w.cum:
		// ensure before has: membership tests are only alias-free for
		// sequences inside the current window.
		w.ensure(seq)
		if !w.has(seq) {
			w.set(seq)
			return true
		}
	}
	return false
}

// NextRun returns the first run of recorded sequences at or after from:
// start is the lowest recorded sequence >= from above the cumulative point,
// end the last of its consecutive successors, or (-1, -1) if there is none.
// Callers walk every run closure-free:
//
//	for s, e := w.NextRun(0); s >= 0; s, e = w.NextRun(e + 1)
//
// The scan reads whole words and stops at the window's edge: past it, slots
// alias the sequences one capacity lower and would read as phantom runs.
func (w *RecvWindow) NextRun(from int64) (start, end int64) {
	lo, hi := max(from, w.cum+1), w.cum+w.capBits()
	if start = w.scan(lo, hi, 0); start >= hi {
		return -1, -1
	}
	return start, w.scan(start, hi, ^uint64(0)) - 1
}

// scan returns the first sequence in [lo, hi) whose bit, xor-ed with flip's,
// is set (flip 0 finds a recorded sequence, flip ^0 a missing one), or hi.
func (w *RecvWindow) scan(lo, hi int64, flip uint64) int64 {
	mask := w.capBits() - 1
	for lo < hi {
		i := lo & mask
		if word := (w.words[i>>6] ^ flip) >> (i & 63); word != 0 {
			return min(lo+int64(bits.TrailingZeros64(word)), hi)
		}
		lo += 64 - i&63
	}
	return hi
}

// Reset empties the window for a new flow, retaining its grown capacity: a
// wider window keeps every resident strictly within one width, so slots
// stay alias-free.
func (w *RecvWindow) Reset() {
	clear(w.words)
	w.cum = 0
}

func (w *RecvWindow) capBits() int64 { return int64(len(w.words)) << 6 }

// ensure grows the window until seq fits strictly inside (cum, cum+capBits()).
// Keeping every resident sequence strictly within one window width of the
// cumulative point makes modulo slots unique, so has/set/clear never alias.
// Growing changes every resident bit's slot, so the survivors are re-placed
// under the new capacity.
func (w *RecvWindow) ensure(seq int64) {
	if w.words == nil {
		w.words = make([]uint64, 16) // 1024-sequence initial window
	}
	for seq-w.cum >= w.capBits() {
		old := w.words
		oldCap := w.capBits()
		w.words = make([]uint64, 2*len(old))
		base := w.cum + 1
		for i, word := range old {
			for word != 0 {
				b := word & (-word)
				word &^= b
				slot := int64(i)<<6 + int64(bits.TrailingZeros64(b))
				// Reconstruct the unique sequence ≡ slot (mod oldCap) in
				// [base, base+oldCap).
				off := (slot - base) & (oldCap - 1)
				w.set(base + off)
			}
		}
	}
}

func (w *RecvWindow) has(seq int64) bool {
	if w.words == nil {
		return false
	}
	i := seq & (w.capBits() - 1)
	return w.words[i>>6]&(1<<(i&63)) != 0
}

func (w *RecvWindow) set(seq int64) {
	i := seq & (w.capBits() - 1)
	w.words[i>>6] |= 1 << (i & 63)
}

func (w *RecvWindow) clear(seq int64) {
	i := seq & (w.capBits() - 1)
	w.words[i>>6] &^= 1 << (i & 63)
}
