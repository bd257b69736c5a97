package sack

import (
	"math/rand"
	"slices"
	"testing"
)

// refRecv is the naive model the bitmap is checked against: one map entry
// per out-of-order sequence, runs found by sorting the keys.
type refRecv struct {
	cum int64
	ooo map[int64]bool
}

func (r *refRecv) add(seq int64) bool {
	if seq < r.cum || r.ooo[seq] {
		return false
	}
	r.ooo[seq] = true
	for r.ooo[r.cum] {
		delete(r.ooo, r.cum)
		r.cum++
	}
	return true
}

// runs returns every maximal run above the cumulative point, lowest first.
func (r *refRecv) runs() [][2]int64 {
	keys := make([]int64, 0, len(r.ooo))
	for seq := range r.ooo {
		keys = append(keys, seq)
	}
	slices.Sort(keys)
	var out [][2]int64
	for _, seq := range keys {
		if k := len(out) - 1; k >= 0 && out[k][1] == seq-1 {
			out[k][1] = seq
		} else {
			out = append(out, [2]int64{seq, seq})
		}
	}
	return out
}

// windowRuns walks every run of w with NextRun.
func windowRuns(w *RecvWindow) [][2]int64 {
	var out [][2]int64
	for s, e := w.NextRun(0); s >= 0; s, e = w.NextRun(e + 1) {
		out = append(out, [2]int64{s, e})
	}
	return out
}

// recvPair drives a RecvWindow and its reference through the same arrivals
// and fails on the first divergence.
type recvPair struct {
	t   *testing.T
	w   RecvWindow
	ref refRecv
}

func newRecvPair(t *testing.T) *recvPair {
	return &recvPair{t: t, ref: refRecv{ooo: map[int64]bool{}}}
}

func (p *recvPair) add(seq int64) {
	p.t.Helper()
	if got, want := p.w.Add(seq), p.ref.add(seq); got != want {
		p.t.Fatalf("Add(%d) fresh = %v, want %v (cum %d)", seq, got, want, p.ref.cum)
	}
	if p.w.CumAck() != p.ref.cum {
		p.t.Fatalf("after Add(%d): CumAck = %d, want %d", seq, p.w.CumAck(), p.ref.cum)
	}
}

func (p *recvPair) reset() {
	p.w.Reset()
	p.ref = refRecv{ooo: map[int64]bool{}}
}

// check compares every run, and NextRun from a few starting points inside
// and around them.
func (p *recvPair) check(rng *rand.Rand) {
	p.t.Helper()
	got, want := windowRuns(&p.w), p.ref.runs()
	if !slices.Equal(got, want) {
		p.t.Fatalf("cum %d: runs %v, want %v", p.ref.cum, got, want)
	}
	for i := 0; i < 4 && len(want) > 0; i++ {
		rg := want[rng.Intn(len(want))]
		from := rg[0] + rng.Int63n(rg[1]-rg[0]+2) // inside the run or just past it
		wantS, wantE := int64(-1), int64(-1)
		for _, r := range want {
			if r[1] >= from {
				wantS, wantE = max(r[0], from), r[1]
				break
			}
		}
		if s, e := p.w.NextRun(from); s != wantS || e != wantE {
			p.t.Fatalf("cum %d: NextRun(%d) = [%d,%d], want [%d,%d]", p.ref.cum, from, s, e, wantS, wantE)
		}
	}
}

// TestRecvWindowMatchesMapReference is the receive bitmap's differential
// test: seeded random arrivals agree with a map model on every fresh
// verdict, cumulative point and run. The rows cover windows past 1024 and
// 2048 sequences (each growth re-places the resident bits), cumulative
// jumps of thousands of sequences in one Add, and a Reset that keeps the
// grown capacity. The "edge" row pins the scan's stop at the window edge:
// a resident sequence at the last slot is followed, one capacity on, by the
// slots of low residents, which an unbounded scan reports as phantom runs.
//
// Not parallel: TestSeqWindowIndexWrap counts allocations process-wide.
func TestRecvWindowMatchesMapReference(t *testing.T) {
	rows := []struct {
		name  string
		span  int64 // arrivals land in [cum, cum+span)
		holes int   // per 1000 arrivals, how often the head is withheld
	}{
		{"narrow", 200, 50},
		{"past-1024", 1500, 300},
		{"past-2048", 3000, 600},
		{"jumps", 5000, 950},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(row.span))
			p := newRecvPair(t)
			for op := 0; op < 20_000; op++ {
				switch k := rng.Intn(1000); {
				case k < row.holes:
					p.add(p.ref.cum + 1 + rng.Int63n(row.span))
				case k < 995:
					// Mostly fill at or near the head, so the cumulative
					// point sweeps through buffered runs.
					p.add(p.ref.cum + rng.Int63n(4) - 1)
				case k < 999:
					p.add(p.ref.cum - rng.Int63n(100)) // stale duplicate
				default:
					p.reset()
				}
				if op%7 == 0 {
					p.check(rng)
				}
			}
			if p.w.capBits() < row.span {
				t.Fatalf("window of %d bits for arrivals %d ahead", p.w.capBits(), row.span)
			}
		})
	}
	t.Run("edge", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		p := newRecvPair(t)
		for _, seq := range []int64{5, 6, 1023} { // 1023: the last slot of the 1024-bit window
			p.add(seq)
		}
		p.check(rng)
		for seq := int64(0); seq < 5; seq++ {
			p.add(seq) // cum jumps to 7: the window is now (7, 1031)
		}
		for _, seq := range []int64{1030, 8, 1029} {
			p.add(seq)
		}
		p.check(rng)
		if len(p.w.words) != 16 {
			t.Fatalf("edge row grew the window to %d words; it must stay at 1024 bits to alias", len(p.w.words))
		}
	})
}

// BenchmarkRecvWindowRunsSparse times one ACK's range read over a
// full-width sparse window: 32 isolated sequences spread across 32768 bits,
// so the scan crosses every word between them.
func BenchmarkRecvWindowRunsSparse(b *testing.B) {
	var w RecvWindow
	for i := int64(1); i <= 32; i++ {
		w.Add(i * 1023)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for s, e := w.NextRun(0); s >= 0 && n < 32; s, e = w.NextRun(e + 1) {
			n++
		}
		if n != 32 {
			b.Fatalf("%d runs, want 32", n)
		}
	}
}
