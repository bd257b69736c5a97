package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// These tests pin the dispatcher: however events reach it — placed straight
// into the near-run, flushed from a wheel slot, through a pipe's self-rearming
// delivery slot, or via the pipe's shrinking-delay engine fallback — the
// observable firing order is the engine-wide (at, seq) total order, and
// Pending always equals the number of events that will actually fire.

// burstModel accumulates a reference model of a random workload: one record
// per drawn sequence number, in draw order, so the expected firing order is
// simply a stable sort by timestamp.
type burstModel struct {
	at   []float64
	dead []bool
}

func (m *burstModel) add(at float64) int {
	m.at = append(m.at, at)
	m.dead = append(m.dead, false)
	return len(m.at) - 1
}

// expected returns the ids of live records in (at, seq) order.
func (m *burstModel) expected() []int {
	ids := make([]int, 0, len(m.at))
	for id := range m.at {
		if !m.dead[id] {
			ids = append(ids, id)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool { return m.at[ids[a]] < m.at[ids[b]] })
	return ids
}

// TestBurstDispatchTotalOrder drives a seeded random workload through every
// scheduling structure at once — near-run events, wheel-banded events, stoppable
// timers, two pipe trains (with naturally occurring shrinking-delay
// fallbacks), same-instant ties, nested same-tick scheduling from inside
// callbacks, and mid-run timer stops — and asserts the firing order equals
// the model's (at, seq) total order.
func TestBurstDispatchTotalOrder(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 424242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var m burstModel
			var fired []int

			type liveTimer struct {
				id int
				tm *Timer
			}
			var timers []liveTimer
			nested := 60
			var rec func(id int)
			rec = func(id int) {
				fired = append(fired, id)
				if nested > 0 && rng.Intn(6) == 0 {
					// Same-instant nested event: enters the near-run behind
					// its equals and must fire later this instant, in seq
					// order.
					nested--
					nid := m.add(e.Now())
					e.At(e.Now(), func() { rec(nid) })
				}
				if len(timers) > 0 && rng.Intn(8) == 0 {
					// Mid-run stop of a strictly-future timer: its event is
					// already placed (wheel or near-run) and must be
					// skipped by the dead-check at execution.
					k := rng.Intn(len(timers))
					lt := timers[k]
					if !m.dead[lt.id] && m.at[lt.id] > e.Now() {
						lt.tm.Stop()
						m.dead[lt.id] = true
					}
				}
			}
			pipeFn := func(a any) { rec(a.(int)) }
			pa, pb := e.NewPipe(pipeFn), e.NewPipe(pipeFn)

			// Dense sub-millisecond instants open the timing wheel and force
			// heavy same-instant collisions across structures; the sparse far
			// band (1 to 2.75 s) keeps level 2 in play.
			instant := func() float64 {
				if rng.Intn(10) == 0 {
					return 1.0 + float64(rng.Intn(8))*0.25
				}
				return float64(rng.Intn(40)) * 0.0005
			}
			for i := 0; i < 500; i++ {
				at := instant()
				switch rng.Intn(5) {
				case 0:
					id := m.add(at)
					e.At(at, func() { rec(id) })
				case 1, 2:
					id := m.add(at)
					tm := e.At(at, func() { rec(id) })
					if rng.Intn(5) == 0 {
						tm.Stop()
						m.dead[id] = true
					} else {
						timers = append(timers, liveTimer{id: id, tm: tm})
					}
				case 3:
					// Random delays make some posts land before the pipe's
					// tail, exercising the shrinking-delay engine fallback.
					pa.Post(at, m.add(at))
				case 4:
					pb.Post(at, m.add(at))
				}
			}

			setupLive := 0
			for id := range m.at {
				if !m.dead[id] {
					setupLive++
				}
			}
			if got := e.Pending(); got != setupLive {
				t.Fatalf("Pending() = %d before Run, want %d live events", got, setupLive)
			}
			e.Run()

			checkOrder(t, fired, &m)
		})
	}
	t.Run("crowd-in-one-tick", burstRowCrowd)
	t.Run("flushed-pipe-slot-in-near-run", burstRowFlushedSlot)
	t.Run("halt-mid-batch", burstRowHalt)
	t.Run("same-instant-fresh-and-older-rearm", burstRowSameInstant)
}

// checkOrder fails unless fired is exactly the model's live records in
// (at, seq) order.
func checkOrder(t *testing.T, fired []int, m *burstModel) {
	t.Helper()
	want := m.expected()
	if len(fired) != len(want) {
		t.Fatalf("%d events fired, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: got id %d (at=%g), want id %d (at=%g)",
				i, fired[i], m.at[fired[i]], want[i], m.at[want[i]])
		}
	}
}

// burstRowCrowd is the dense-tick worst case of a sorted near-run, both ways
// a crowd can reach it: 4096 events inside one tick scheduled ahead of time
// in random order (one wheel slot, flushed at once) and 4096 more scheduled
// from inside that tick (direct in-window inserts), with duplicates so seq
// breaks ties.
func burstRowCrowd(t *testing.T) {
	t.Parallel()
	const crowd = 4096
	rng := rand.New(rand.NewSource(23))
	e := NewEngine()
	loadEngine(e)
	var m burstModel
	var fired []int
	base := 125.1 * wheelGranularity
	inTick := func() float64 {
		at := base + float64(rng.Intn(crowd/4))*0.8*wheelGranularity/(crowd/4)
		if tickOf(at) != tickOf(base) {
			t.Fatalf("test bug: %g left the tick of %g", at, base)
		}
		return at
	}
	m.add(base)
	e.At(base, func() {
		fired = append(fired, 0)
		for i := 0; i < crowd; i++ {
			at := inTick()
			id := m.add(at)
			e.At(at, func() { fired = append(fired, id) })
		}
	})
	for i := 0; i < crowd; i++ {
		at := inTick()
		id := m.add(at)
		e.At(at, func() { fired = append(fired, id) })
	}
	e.RunUntil(1)
	checkOrder(t, fired, &m)
}

// burstRowFlushedSlot kills a pipe's armed delivery slot while it sits in the
// near-run, re-posts before and after the dead arming's timestamp (the
// dynamic fallback, then the slot again), and checks every survivor against
// the reference order.
func burstRowFlushedSlot(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	loadEngine(e)
	var m burstModel
	var fired []int
	rec := func(id int) func() { return func() { fired = append(fired, id) } }
	p := e.NewPipe(func(a any) { fired = append(fired, a.(int)) })
	post := func(delay float64) int {
		id := m.add(e.Now() + delay)
		p.Post(delay, id)
		return id
	}
	at := func(delay float64) {
		id := m.add(e.Now() + delay)
		e.At(e.Now()+delay, rec(id))
	}
	spawn := func(when float64, fn func()) {
		id := m.add(when)
		e.At(when, func() {
			fired = append(fired, id)
			fn()
		})
	}
	spawn(0.001, func() {
		// Inside the current tick: the armed slot lands in the near-run.
		a, b := post(3e-6), post(5e-6)
		if tickOf(p.slot.at) >= e.wheel.cur {
			t.Errorf("test bug: the armed slot was bucketed, not placed in the near-run")
		}
		at(1e-6)
		at(4e-6)
		p.Flush(nil)
		m.dead[a], m.dead[b] = true, true
		post(2e-6) // before the dead arming at +3 µs: dynamic fallback
		if p.dyn == nil {
			t.Errorf("re-post before the dead arming's time did not take the dynamic fallback")
		}
		at(6e-6)
	})
	spawn(0.001+20e-6, func() {
		post(1e-6) // the clock is past the dead arming: the slot is reusable
		if p.stale {
			t.Errorf("slot still stale after the clock passed its dead arming")
		}
		post(2e-6)
	})
	e.RunUntil(1)
	checkOrder(t, fired, &m)
}

// burstRowHalt halts in the middle of a same-instant run scheduled ahead and
// in the middle of a chain a lone event spawns at its own instant: the
// unexecuted remainder must stay queued, be counted by Pending, and fire
// first, in order, on resume.
func burstRowHalt(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	loadEngine(e)
	base := e.Pending()
	var fired []int
	rec := func(id int, halt bool) func() {
		return func() {
			fired = append(fired, id)
			if halt {
				e.Halt()
			}
		}
	}
	for i := 0; i < 6; i++ {
		e.At(0.002, rec(i, i == 2)) // a same-instant run; the third entry halts
	}
	e.At(0.002+1e-6, rec(6, false))
	e.At(0.003, func() { // a lone event chaining three same-instant ones
		fired = append(fired, 7)
		e.At(0.003, rec(8, true))
		e.At(0.003, rec(9, false))
		e.At(0.003, rec(10, false))
	})
	expect := func(n, pending int) {
		t.Helper()
		if len(fired) != n {
			t.Fatalf("fired %v, want the first %d", fired, n)
		}
		for i, id := range fired {
			if id != i {
				t.Fatalf("fired %v, want ids in order", fired)
			}
		}
		if got := e.Pending() - base; got != pending {
			t.Fatalf("Pending = %d after %d events, want %d", got, n, pending)
		}
	}
	e.Run()
	expect(3, 5)
	e.Run()
	expect(9, 2)
	e.RunUntil(1)
	expect(11, 0)
}

// burstRowSameInstant is a same-instant train with no path of its own: a pipe
// holding entries at one instant T interleaved with events at T, whose
// callbacks schedule fresh events at their own instant and post further
// entries at T into the pipe. Each delivery re-arms the pipe's slot with the
// next entry's stored seq, older than events drawn after it and still queued
// at T, so the re-arm must walk back behind the executing event to its own
// place. It runs on a bare engine (the near-run alone) and on a loaded one
// (the wheel engaged).
func burstRowSameInstant(t *testing.T) {
	t.Parallel()
	const T = 0.002
	for _, loaded := range []bool{false, true} {
		e := NewEngine()
		if loaded {
			loadEngine(e)
		}
		var m burstModel
		var fired []int
		var p *Pipe
		spawned, olderRearms := 0, 0
		var rec func(id int)
		rec = func(id int) {
			fired = append(fired, id)
			if e.Now() != T || spawned == 40 {
				return
			}
			spawned++
			nid := m.add(T)
			e.At(T, func() { rec(nid) })
			if spawned%3 == 0 {
				p.Post(0, m.add(T))
			}
		}
		p = e.NewPipe(func(a any) {
			if p.armed && p.slot.at == T && p.slot.seq+1 < e.nextSeq {
				olderRearms++
			}
			rec(a.(int))
		})
		for _, at := range []float64{T / 2, T, T, T, T, T, T, T, T, T, T, 2 * T} {
			id := m.add(at)
			e.At(at, func() { rec(id) })
			p.Post(at, m.add(at))
		}
		e.Run()
		checkOrder(t, fired, &m)
		if spawned < 40 || olderRearms < 10 {
			t.Fatalf("loaded=%v: %d events spawned at T and %d re-arms behind later draws; workload too tame",
				loaded, spawned, olderRearms)
		}
	}
}

// TestPendingMatchesReality is the Pending-vs-reality property: after an
// arbitrary seeded sequence of schedules, cancels, pipe posts and Resets,
// Engine.Pending equals the number of events that actually fire. This
// covers the subtle counting paths — the armed pipe head (counted once,
// not twice), dead wheel entries and dead near-run events.
func TestPendingMatchesReality(t *testing.T) {
	for _, seed := range []int64{3, 99, 2026} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			fires := 0
			count := func() { fires++ }
			countArg := func(any) { fires++ }
			p := e.NewPipe(countArg)

			for round := 0; round < 8; round++ {
				var timers []*Timer
				expect := 0
				n := 50 + rng.Intn(200)
				for i := 0; i < n; i++ {
					// The clock keeps running across rounds; schedule
					// relative to it.
					d := float64(rng.Intn(60)) * 0.0004
					switch rng.Intn(4) {
					case 0:
						e.At(e.Now()+d, count)
						expect++
					case 1:
						timers = append(timers, e.After(d, count))
						expect++
					case 2:
						e.PostArg(d, countArg, i)
						expect++
					case 3:
						p.Post(d, i)
						expect++
					}
				}
				// Cancel a random subset before running: dead events linger
				// in the near-run and wheel and must be excluded from Pending.
				for _, tm := range timers {
					if rng.Intn(3) == 0 && tm.Stop() {
						expect--
					}
				}
				if got := e.Pending(); got != expect {
					t.Fatalf("round %d: Pending() = %d, want %d", round, got, expect)
				}
				if rng.Intn(4) == 0 {
					// Abandon the round: Reset must zero the count and the
					// next round must still balance.
					e.Reset(nil)
					if got := e.Pending(); got != 0 {
						t.Fatalf("round %d: Pending() = %d after Reset, want 0", round, got)
					}
					continue
				}
				fires = 0
				e.Run()
				if fires != expect {
					t.Fatalf("round %d: %d events fired, want %d", round, fires, expect)
				}
				if got := e.Pending(); got != 0 {
					t.Fatalf("round %d: Pending() = %d after Run, want 0", round, got)
				}
			}
		})
	}
	t.Run("reset-mid-run-then-rerun", pendingRowResetRerun)
	t.Run("reset-reclaims-dropped-args", pendingRowReclaim)
}

// pendingRowReclaim stops runs part-way — arg-carrying events in every band,
// two pipes with armed slots, overtaking pipe entries riding engine events, and
// a flushed pipe re-armed through its dynamic fallback — and checks that Reset
// hands reclaim exactly the args that were posted and neither fired nor
// flushed: each once, and nothing else (no pipe, no cancelled event).
func pendingRowReclaim(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	e := NewEngine()
	live := map[int]bool{} // posted, not yet fired or flushed
	gone := func(a any) {
		id := a.(int)
		if !live[id] {
			t.Fatalf("arg %d fired or was flushed twice", id)
		}
		delete(live, id)
	}
	pa, pb := e.NewPipe(gone), e.NewPipe(gone)
	id := 0
	next := func() int { id++; live[id] = true; return id }
	for trial := 0; trial < 6; trial++ {
		for i := 0; i < 400; i++ {
			// Same tick, level 0, level 1, level 2 and beyond the horizon.
			d := [...]float64{3e-6, 1e-3, 0.2, 30, 200}[rng.Intn(5)] * rng.Float64()
			switch rng.Intn(5) {
			case 0:
				e.PostArg(d, gone, next())
			case 1:
				pa.Post(d, next())
			case 2:
				pb.Post(d, next())
			case 3:
				e.After(d, func() {}).Stop()
			case 4:
				e.After(d, func() {})
			}
		}
		mid := 1e-3 * float64(1+trial)
		e.At(mid, func() {
			// The armed slot lies past mid: while its dead arming is lodged,
			// the next head rides the dynamic fallback, and an entry before
			// it overtakes as an engine event. Both are pending at the reset.
			pa.Flush(gone)
			pa.Post(pa.slot.at-mid, next())
			pa.Post((pa.slot.at-mid)/2, next())
		})
		e.RunUntil(mid)
		if !pb.armed || pa.dyn == nil {
			t.Fatalf("trial %d: test bug: want pb's slot and pa's fallback armed at the reset", trial)
		}
		e.Reset(func(a any) {
			if _, ok := a.(int); !ok {
				t.Fatalf("trial %d: reclaim got %T, not a dropped entry's arg", trial, a)
			}
			gone(a)
		})
		if len(live) != 0 || e.Pending() != 0 {
			t.Fatalf("trial %d: %d posted args neither fired nor reclaimed, %d pending", trial, len(live), e.Pending())
		}
	}
}

// pendingRowResetRerun abandons a run halfway — events left in every band,
// a half-drained pipe, a cancelled timer — Resets, and re-runs the identical
// script: Pending must read zero after the Reset and the re-run must fire
// exactly what a fresh engine fires, in the same order.
func pendingRowResetRerun(t *testing.T) {
	t.Parallel()
	script := func(e *Engine, until float64) []int {
		rng := rand.New(rand.NewSource(5))
		var fired []int
		p := e.NewPipe(func(a any) { fired = append(fired, a.(int)) })
		defer e.DropPipe(p)
		for id := 0; id < 600; id++ {
			id := id
			// Same tick, level 0, level 1, level 2 and beyond the horizon.
			at := [...]float64{3e-6, 1e-3, 0.2, 30, 200}[rng.Intn(5)] * (1 + rng.Float64())
			switch rng.Intn(3) {
			case 0:
				e.At(at, func() { fired = append(fired, id) })
			case 1:
				if tm := e.At(at, func() { fired = append(fired, id) }); rng.Intn(4) == 0 {
					tm.Stop()
				}
			case 2:
				p.Post(at, id)
			}
		}
		e.RunUntil(until)
		if until < 1e3 {
			if e.Pending() == 0 {
				t.Fatalf("test bug: nothing pending at %g", until)
			}
			e.Reset(nil)
			if got := e.Pending(); got != 0 {
				t.Fatalf("Pending() = %d after a mid-run Reset, want 0", got)
			}
		}
		return fired
	}
	want := script(NewEngine(), 1e3)
	e := NewEngine()
	for _, mid := range []float64{1e-5, 0.3, 45, 250} {
		if part := script(e, mid); len(part) == 0 || len(part) >= len(want) {
			t.Fatalf("run to %g fired %d of %d events, want a strict part", mid, len(part), len(want))
		}
		got := script(e, 1e3)
		if len(got) != len(want) {
			t.Fatalf("re-run after Reset at %g fired %d events, want %d", mid, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("re-run after Reset at %g diverges at %d: id %d, want %d", mid, i, got[i], want[i])
			}
		}
		e.Reset(nil)
	}
}

// TestDropPipeUnregisteredPanics pins that deregistering a pipe the engine
// does not own is a programming error, not a silent no-op.
func TestDropPipeUnregisteredPanics(t *testing.T) {
	t.Parallel()
	e1, e2 := NewEngine(), NewEngine()
	p := e1.NewPipe(func(any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("DropPipe on a foreign pipe must panic")
		}
	}()
	e2.DropPipe(p)
}

// TestDropPipeTwicePanics pins the same contract for double deregistration.
func TestDropPipeTwicePanics(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	p := e.NewPipe(func(any) {})
	e.DropPipe(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second DropPipe of the same pipe must panic")
		}
	}()
	e.DropPipe(p)
}
