package sack

import (
	"math"
	"math/rand"
	"testing"
)

// refBoard is the naive scoreboard Board is checked against: one map entry
// per tracked sequence, a front-sliced retransmission queue, every query
// answered by probing or scanning.
type refBoard struct {
	m          map[int64]Entry
	base, next int64
	sackHigh   int64
	lossScan   int64
	rtxQ       []int64
}

func newRefBoard() *refBoard { return &refBoard{m: map[int64]Entry{}} }

func (r *refBoard) pick(now float64, limit int64) (int64, bool) {
	for len(r.rtxQ) > 0 {
		seq := r.rtxQ[0]
		r.rtxQ = r.rtxQ[1:]
		if e, ok := r.m[seq]; ok && e.Lost && !e.Sacked {
			e.Lost, e.Attempts, e.SentAt = false, e.Attempts+1, now
			r.m[seq] = e
			return seq, true
		}
	}
	if r.next >= limit {
		return -1, false
	}
	r.m[r.next] = Entry{SentAt: now}
	r.next++
	return r.next - 1, false
}

// sack reports whether seq was newly acknowledged.
func (r *refBoard) sack(seq int64) bool {
	if seq >= r.next {
		return false
	}
	r.sackHigh = max(r.sackHigh, seq)
	e, ok := r.m[seq]
	if !ok || e.Sacked {
		return false
	}
	e.Sacked = true
	r.m[seq] = e
	return true
}

func (r *refBoard) markLost(seq int64) {
	e := r.m[seq]
	e.Lost = true
	r.m[seq] = e
	r.rtxQ = append(r.rtxQ, seq)
}

// gapLosses runs the whole SACK-gap scan and returns what it declared lost.
func (r *refBoard) gapLosses() []int64 {
	var out []int64
	limit := r.sackHigh - DupThresh
	for seq := r.lossScan; seq <= limit; seq++ {
		if e, ok := r.m[seq]; ok && !e.Sacked && !e.Lost {
			r.markLost(seq)
			out = append(out, seq)
		}
	}
	r.lossScan = max(r.lossScan, limit+1)
	return out
}

func (r *refBoard) outstanding() int {
	n := 0
	for _, e := range r.m {
		if !e.Sacked {
			n++
		}
	}
	return n
}

// boardRow is one seeded interleaving; the weights shape it. A row whose
// advances are rare and short keeps the head stuck, so the ring grows while
// live entries straddle its wrap point; one with a low limit spends its time
// at the flow's end, where only retransmissions remain.
type boardRow struct {
	name    string
	seed    int64
	ops     int
	advance int   // percent of steps that are a cumulative advance
	maxPop  int64 // an advance acknowledges at most this many sequences
	limit   int64 // Pick's fresh-sequence limit
}

var boardRows = []boardRow{
	{name: "steady", seed: 3, ops: 30_000, advance: 20, maxPop: math.MaxInt64, limit: math.MaxInt64},
	{name: "stuck-head-growth", seed: 4, ops: 6_000, advance: 1, maxPop: 2, limit: math.MaxInt64},
	{name: "finite-flow-tail", seed: 5, ops: 20_000, advance: 10, maxPop: math.MaxInt64, limit: 300},
}

func runBoardDifferential(t *testing.T, row boardRow) {
	rng := rand.New(rand.NewSource(row.seed))
	var b Board
	ref := newRefBoard()
	now := 0.0
	grown := 0

	check := func(op int) {
		t.Helper()
		if b.Next() != ref.next || b.CumAck() != ref.base {
			t.Fatalf("op %d: range [%d,%d), want [%d,%d)", op, b.CumAck(), b.Next(), ref.base, ref.next)
		}
		if got, want := b.Outstanding(), ref.outstanding(); got != want {
			t.Fatalf("op %d: Outstanding() = %d, want %d", op, got, want)
		}
		if got, want := b.HasRtx(), len(ref.rtxQ) > 0; got != want {
			t.Fatalf("op %d: HasRtx() = %v, want %v (ref queue %v)", op, got, want, ref.rtxQ)
		}
		if got, want := b.CanSend(row.limit), len(ref.rtxQ) > 0 || ref.next < row.limit; got != want {
			t.Fatalf("op %d: CanSend() = %v, want %v", op, got, want)
		}
		for seq := ref.base - 3; seq < ref.next+3; seq++ {
			want, tracked := ref.m[seq]
			got := b.Lookup(seq)
			if (got != nil) != tracked || (tracked && *got != want) {
				t.Fatalf("op %d: Lookup(%d) = %v, want %+v (tracked=%v)", op, seq, got, want, tracked)
			}
		}
		if b.sackHigh >= max(b.Next(), 1) {
			t.Fatalf("op %d: sackHigh %d ran past the %d sequences sent", op, b.sackHigh, b.Next())
		}
	}

	for op := 0; op < row.ops; op++ {
		now += rng.Float64()
		size := ref.next - ref.base
		switch k := rng.Intn(100); {
		case k < row.advance:
			// Cumulative advance, sometimes to a point never sent.
			cum := ref.base + rng.Int63n(min(size, row.maxPop)+4)
			for b.HeadBelow(cum) {
				seq, e := b.PopHead()
				if seq != ref.base || e != ref.m[seq] {
					t.Fatalf("op %d: PopHead = (%d, %+v), want (%d, %+v)", op, seq, e, ref.base, ref.m[ref.base])
				}
				delete(ref.m, seq)
				ref.base++
			}
			if want := min(max(cum, ref.base), ref.next); ref.base != want {
				t.Fatalf("op %d: advance to %d stopped at %d, want %d", op, cum, ref.base, want)
			}
		case k < row.advance+35:
			// Pick: a queued retransmission, else a fresh sequence.
			ringBefore := len(b.win.ring)
			seq, rtx := b.Pick(now, row.limit)
			wantSeq, wantRtx := ref.pick(now, row.limit)
			if seq != wantSeq || rtx != wantRtx {
				t.Fatalf("op %d: Pick = (%d, %v), want (%d, %v)", op, seq, rtx, wantSeq, wantRtx)
			}
			if len(b.win.ring) != ringBefore {
				grown++
			}
		case k < row.advance+65:
			// Sack anything from well below the window to well above it.
			seq := ref.base - 5 + rng.Int63n(size+10)
			if got, want := b.Sack(seq) != nil, ref.sack(seq); got != want {
				t.Fatalf("op %d: Sack(%d) newly=%v, want %v", op, seq, got, want)
			}
			// A received range is clamped to the tracked window first.
			lo, hi := b.Clamp(seq-rng.Int63n(1<<40), seq+rng.Int63n(1<<40))
			if lo < ref.base || hi >= ref.next {
				t.Fatalf("op %d: Clamp gave [%d,%d] outside [%d,%d)", op, lo, hi, ref.base, ref.next)
			}
		case k < row.advance+75:
			// SACK-gap scan, one loss per step.
			want := ref.gapLosses()
			var got []int64
			for seq := b.NextGapLoss(); seq >= 0; seq = b.NextGapLoss() {
				got = append(got, seq)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: gap scan lost %v, want %v", op, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: gap scan lost %v, want %v", op, got, want)
				}
			}
		case k < row.advance+79:
			// Tail sweep: everything outstanding older than a cut-off.
			age := rng.Float64() * 20
			from := ref.base
			for seq, e := b.NextOutstanding(0); seq >= 0; seq, e = b.NextOutstanding(seq + 1) {
				for ; from < seq; from++ {
					if r := ref.m[from]; !r.Sacked && !r.Lost {
						t.Fatalf("op %d: sweep skipped outstanding seq %d", op, from)
					}
				}
				from = seq + 1
				if r := ref.m[seq]; r.Sacked || r.Lost || *e != r {
					t.Fatalf("op %d: sweep yielded seq %d %+v, ref %+v", op, seq, *e, r)
				}
				if now-e.SentAt > age {
					b.MarkLost(seq)
					ref.markLost(seq)
				}
			}
			for ; from < ref.next; from++ {
				if r := ref.m[from]; !r.Sacked && !r.Lost {
					t.Fatalf("op %d: sweep stopped before outstanding seq %d", op, from)
				}
			}
		case k == 98:
			// Retransmission timeout.
			b.LoseAll()
			ref.rtxQ = nil
			for seq := ref.base; seq < ref.next; seq++ {
				if !ref.m[seq].Sacked {
					ref.markLost(seq)
				}
			}
			ref.lossScan = ref.next
		case k == 99 && rng.Intn(20) == 0:
			b.Reset()
			ref = newRefBoard()
		}
		check(op)
	}
	if row.maxPop == 2 && grown < 3 {
		t.Fatalf("the stuck-head row grew the ring %d times; it did not exercise growth", grown)
	}
}

// TestBoardWarmCycleAllocatesNothing pins the shared FIFO's point: once the
// ring and the queue's backing array are warm, a steady cycle of send, SACK,
// gap loss, retransmission and cumulative advance allocates nothing — the
// index-consumed queue keeps its capacity where a front re-slice would
// allocate once per detected loss.
func TestBoardWarmCycleAllocatesNothing(t *testing.T) {
	var b Board
	now := 0.0
	cycle := func() {
		for i := 0; i < 256; i++ {
			now++
			seq, _ := b.Pick(now, math.MaxInt64)
			if seq%8 != 0 { // every eighth packet is lost on first transmission
				b.Sack(seq)
			}
			for l := b.NextGapLoss(); l >= 0; l = b.NextGapLoss() {
				if rtxSeq, rtx := b.Pick(now, math.MaxInt64); rtx {
					b.Sack(rtxSeq)
				}
			}
			for b.HeadBelow(b.Next()) && b.Lookup(b.CumAck()).Sacked {
				b.PopHead()
			}
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a warm board allocates %.1f objects per 256-packet cycle, want 0", avg)
	}
	if b.Next() < 1000 || b.Outstanding() > 16 {
		t.Fatalf("cycle did not run as intended: next %d, outstanding %d", b.Next(), b.Outstanding())
	}
}
