package sack

import (
	"math/rand"
	"testing"
)

// refWindow is the naive model the dense ring is checked against: one map
// entry per tracked sequence, every query answered by probing or scanning.
type refWindow struct {
	m          map[int64]Entry
	base, next int64
}

func (r *refWindow) outstanding() int {
	n := 0
	for _, st := range r.m {
		if !st.Sacked {
			n++
		}
	}
	return n
}

// scanOutstanding recounts a window's un-SACKed entries the O(window) way.
func scanOutstanding(w *seqWindow) int {
	n := 0
	for seq := w.base; seq < w.next; seq++ {
		if !w.at(seq).Sacked {
			n++
		}
	}
	return n
}

// windowPair drives a seqWindow and its reference through the same
// operations and fails on the first divergence.
type windowPair struct {
	t     *testing.T
	w     seqWindow
	ref   refWindow
	stamp float64 // unique sentAt per add, so a misplaced entry is visible
}

func newWindowPair(t *testing.T) *windowPair {
	return &windowPair{t: t, ref: refWindow{m: map[int64]Entry{}}}
}

func (p *windowPair) add() {
	p.stamp++
	p.w.add().SentAt = p.stamp
	p.ref.m[p.ref.next] = Entry{SentAt: p.stamp}
	p.ref.next++
}

// touch applies one sender-style mutation to a tracked sequence.
func (p *windowPair) touch(seq int64, kind int) {
	st, want := p.w.lookup(seq), p.ref.m[seq]
	switch kind {
	case 0:
		if !want.Sacked {
			p.w.markSacked(st)
			want.Sacked = true
		}
	case 1:
		st.Lost, want.Lost = true, true
	case 2:
		p.stamp++
		st.Lost, st.Attempts, st.SentAt = false, st.Attempts+1, p.stamp
		want.Lost, want.Attempts, want.SentAt = false, want.Attempts+1, p.stamp
	}
	p.ref.m[seq] = want
}

func (p *windowPair) popHead() {
	seq, st := p.w.popHead()
	if seq != p.ref.base || st != p.ref.m[seq] {
		p.t.Fatalf("popHead = (%d, %+v), want (%d, %+v)", seq, st, p.ref.base, p.ref.m[p.ref.base])
	}
	delete(p.ref.m, seq)
	p.ref.base++
}

func (p *windowPair) reset() {
	p.w.reset()
	p.ref = refWindow{m: map[int64]Entry{}}
}

// check compares every observable of the two windows, probing a margin of
// untracked sequences on both sides.
func (p *windowPair) check() {
	p.t.Helper()
	if p.w.base != p.ref.base || p.w.next != p.ref.next {
		p.t.Fatalf("range [%d,%d), want [%d,%d)", p.w.base, p.w.next, p.ref.base, p.ref.next)
	}
	for seq := p.ref.base - 3; seq < p.ref.next+3; seq++ {
		want, tracked := p.ref.m[seq]
		got := p.w.lookup(seq)
		if (got != nil) != tracked {
			p.t.Fatalf("lookup(%d) tracked=%v, want %v", seq, got != nil, tracked)
		}
		if tracked && *got != want {
			p.t.Fatalf("lookup(%d) = %+v, want %+v", seq, *got, want)
		}
	}
	if got, want := p.w.unsacked, p.ref.outstanding(); got != want || scanOutstanding(&p.w) != want {
		p.t.Fatalf("outstanding() = %d (scan %d), want %d", got, scanOutstanding(&p.w), want)
	}
	for _, seq := range []int64{p.ref.base - 1, p.ref.base, p.ref.base + 1, p.ref.next + 1} {
		if got, want := p.w.headBelow(seq), len(p.ref.m) > 0 && p.ref.base < seq; got != want {
			p.t.Fatalf("headBelow(%d) = %v, want %v", seq, got, want)
		}
	}
}

// TestSeqWindowMatchesMapReference is the ledger's differential test. The
// "window" row drives the dense ring alone: random add / lookup / sack /
// loss / rtx / popHead / reset sequences agree with the map model at every
// step, including the counter that replaced the O(window) outstanding scan.
// The "board" rows (board_test.go) drive the whole scoreboard — pick-next,
// Sack, cumulative advance, gap scan, tail sweep, RTO, ring growth — against
// a naive map-and-slice reference under seeded random interleavings.
func TestSeqWindowMatchesMapReference(t *testing.T) {
	t.Parallel()
	t.Run("window", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		p := newWindowPair(t)
		for op := 0; op < 20_000; op++ {
			size := p.ref.next - p.ref.base
			switch k := rng.Intn(100); {
			case k < 40:
				p.add()
			case k < 70 && size > 0:
				p.touch(p.ref.base+rng.Int63n(size), rng.Intn(3))
			case k < 99 && size > 0:
				for n := rng.Int63n(min(size, 8)) + 1; n > 0; n-- {
					p.popHead()
				}
			case k == 99:
				p.reset()
			}
			p.check()
		}
	})
	for _, row := range boardRows {
		t.Run("board/"+row.name, func(t *testing.T) { runBoardDifferential(t, row) })
	}
}

// TestSeqWindowGrowsBehindStuckHead pins growth while the head cannot
// advance: the oldest packet is a hole, everything above it is sent and
// SACKed, and the ring doubles repeatedly with the live range straddling its
// wrap point. Entries must keep their state across every re-placement.
func TestSeqWindowGrowsBehindStuckHead(t *testing.T) {
	t.Parallel()
	p := newWindowPair(t)
	// Park the head mid-ring first so the live range wraps the old ring at
	// each growth.
	for i := 0; i < seqWinMinSlots-5; i++ {
		p.add()
	}
	for i := 0; i < seqWinMinSlots-10; i++ {
		p.popHead()
	}
	hole := p.ref.base
	p.touch(hole, 1)
	for i := 0; i < 5000; i++ {
		p.add()
		if seq := p.ref.next - 1; seq%3 != 0 {
			p.touch(seq, 0)
		}
		if i%97 == 0 {
			p.check()
		}
	}
	if len(p.w.ring) < 5000 || len(p.w.ring)&(len(p.w.ring)-1) != 0 {
		t.Fatalf("ring has %d slots for a 5000-packet window", len(p.w.ring))
	}
	p.check()
	p.touch(hole, 2) // the retransmission finally fills the hole
	p.touch(hole, 0)
	for p.ref.base < p.ref.next {
		p.popHead()
	}
	p.check()
}

// TestSeqWindowIndexWrap pins the steady state: a bounded window sliding
// over many times the ring's length never grows it, and stays correct as
// seq & mask wraps.
func TestSeqWindowIndexWrap(t *testing.T) {
	t.Parallel()
	p := newWindowPair(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50*seqWinMinSlots; i++ {
		p.add()
		if p.ref.next-p.ref.base == seqWinMinSlots { // exactly full: must not grow
			p.check()
			for n := 1 + rng.Intn(seqWinMinSlots); n > 0; n-- {
				p.popHead()
			}
		}
		p.check()
	}
	if len(p.w.ring) != seqWinMinSlots {
		t.Fatalf("a window never above %d packets grew the ring to %d", seqWinMinSlots, len(p.w.ring))
	}
	if avg := testing.AllocsPerRun(10, func() {
		p.w.reset()
		for i := 0; i < 3*seqWinMinSlots; i++ {
			p.w.add()
			if i%2 == 1 {
				p.w.popHead()
				p.w.popHead()
			}
		}
	}); avg != 0 {
		t.Fatalf("a warm window allocates %.1f objects per flow, want 0", avg)
	}
}
