package sim

import "testing"

// TestDrawSeqMatchesPostAndPrecedes runs one self-spawning workload twice. On
// engine b every "stamp" is a real event posted at its instant; on engine a
// the same stamp is only a DrawSeq number kept beside its instant, the way a
// netem link keeps its inbox. Each DrawSeq must return the number b's Post
// drew at the same point, and inside every event a runs — alone at its
// instant or sharing it with events before it — Precedes must say of each
// stamp exactly whether b fired it before that event. Outside any
// callback every stamp at or before the clock has happened; after a Halt the
// engine stands just past the halting event.
func TestDrawSeqMatchesPostAndPrecedes(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		type stamp struct {
			id  int
			at  Time
			seq uint64
		}
		fired := map[int]int{}      // item → its position in b's firing order
		postSeq := map[int]uint64{} // stamp item → the seq b's Post drew
		var stamps []stamp
		var alone, shared, checked int

		run := func(e *Engine, real bool) {
			next, pos := 0, 0
			last := Time(-1) // the instant of the last event a ran
			var spawn func(at Time, depth int)
			spawn = func(at Time, depth int) {
				id := next
				next++
				h := mix64(seed<<32 | uint64(id))
				if h&3 == 0 {
					if real {
						postSeq[id] = e.nextSeq
						e.PostAt(at, func() { fired[id] = pos; pos++ })
						return
					}
					s := e.DrawSeq()
					if s != postSeq[id] {
						t.Fatalf("seed %d item %d: DrawSeq %d, Post drew %d", seed, id, s, postSeq[id])
					}
					stamps = append(stamps, stamp{id, at, s})
					return
				}
				e.PostAt(at, func() {
					if real {
						fired[id] = pos
						pos++
					} else {
						if e.Now() == last {
							shared++
						} else {
							alone++
						}
						last = e.Now()
						for _, s := range stamps {
							if got, want := e.Precedes(s.at, s.seq), fired[s.id] < fired[id]; got != want {
								t.Fatalf("seed %d: inside event %d at %v, Precedes(stamp %d at %v) = %v, want %v",
									seed, id, e.Now(), s.id, s.at, got, want)
							}
							checked++
						}
					}
					if depth == 3 {
						return
					}
					for c := uint64(0); c < h>>8&3; c++ {
						hc := mix64(h + c)
						d := 0.0 // the same instant, behind the running event
						switch hc & 3 {
						case 1:
							d = float64(1+hc>>40%4) * 1e-3 // onto the shared grid
						case 2, 3:
							d = float64(hc>>11) / (1 << 53) * 0.01 // alone
						}
						spawn(e.Now()+d, depth+1)
					}
				})
			}
			for r := uint64(0); r < 60; r++ {
				spawn(float64(mix64(seed+r)>>40%40)*1e-3, 0)
			}
			e.Run()
		}
		run(NewEngine(), true)
		a := NewEngine()
		run(a, false)
		if alone == 0 || shared == 0 || len(stamps) < 50 || checked < 1000 {
			t.Fatalf("seed %d: %d events alone at their instant and %d sharing one checked %d times against %d stamps; workload too tame",
				seed, alone, shared, checked, len(stamps))
		}
		for _, s := range stamps {
			if got := a.Precedes(s.at, s.seq); got != (s.at <= a.Now()) {
				t.Fatalf("seed %d: outside any callback at %v, Precedes(stamp at %v) = %v", seed, a.Now(), s.at, got)
			}
		}
		if !a.Precedes(a.Now(), a.DrawSeq()) {
			t.Fatalf("seed %d: outside any callback, a fresh stamp at the clock has not happened", seed)
		}
	}

	t.Run("halt", func(t *testing.T) {
		e := NewEngine()
		e.PostAt(1, e.Halt)
		e.PostAt(1, func() {})
		s := e.DrawSeq()
		e.Run()
		if e.Now() != 1 || e.Pending() != 1 || e.Precedes(1, s) {
			t.Fatalf("after a Halt at %v with %d pending: Precedes(1, later stamp) = %v, want false", e.Now(), e.Pending(), e.Precedes(1, s))
		}
		e.Run()
		if !e.Precedes(1, s) {
			t.Fatal("after draining, a stamp at the clock has not happened")
		}
		e.Reset(nil)
		if !e.Precedes(0, e.DrawSeq()) {
			t.Fatal("after Reset, a stamp at the clock has not happened")
		}
	})
}
