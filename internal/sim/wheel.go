package sim

import (
	"math"
	"math/bits"
)

// The scheduler: a sorted near-run under a three-level timing wheel.
//
// The engine serves a few hundred persistent timers — a pipe head (or, on a
// quiet link, a wake) per link, a pacing and a tail timer per flow — re-armed
// millions of times. A pending event lives in exactly one of four bands,
// chosen by how far its tick lies past the wheel cursor when it is placed:
//
//	near      a run sorted by (at, seq) and consumed from the front: every
//	          event whose tick is behind the cursor. This, and only this,
//	          decides firing order. Pop is an index bump; an arrival enters
//	          by a short insertion from the back.
//	level 0-2 three rings of 256 slots, 1 / 256 / 65 536 ticks wide, reaching
//	          2 ms / 524 ms / 134 s ahead. O(1) to enter, unordered inside a
//	          slot. Level-0 slots are flushed into the near-run as the cursor
//	          passes; upper slots cascade down a level as it enters them.
//	overflow  a 4-ary heap for the rare event beyond 134 s, refilled into the
//	          wheel as the horizon reaches it and never read when popping.
//
// Placement is a cost policy and nothing else: whichever band an event
// starts in, it reaches the near-run before it can be the earliest pending
// event, and the near-run orders it against everything else by (at, seq).
// Reports are therefore byte-identical to a plain priority queue's.
//
// Measured on the 120-node / 200-flow WAN trial (Engine.Stats, 4.75 M events
// since access hops post into the links they feed): 96.2 % of placements land
// in level 0, 2.1 % in level 1, 1.7 % in the near-run, 0.02 % in level 2 and
// none in the overflow heap; the cursor moves once per 8.1 events and the
// near-run is 9.5 entries long right after it has (its longest), 28 at most.
// TestStatsWANTimers holds a synthetic copy of that traffic to those numbers.
//
// Invariants:
//
//  1. Every event in a level or in the overflow heap has tickOf(at) >= cur:
//     an event enters a level only with tick >= cur, and cur passes a tick
//     only by flushing that tick's level-0 slot into the near-run.
//  2. near[head:] is sorted by (at, seq). spill is the unsorted remainder of
//     a crowd — arrivals that belonged more than nearShiftMax places from
//     the back — and is sorted and merged before the next pop.
//  3. The near-run's head may fire once cur > tickOf(head.at) and spill is
//     empty. tickOf is monotone (a correctly rounded multiply by a positive
//     constant, then truncation), so by (1) everything outside the near-run
//     then has a strictly later timestamp. No extra tick of float slack is
//     needed; integer time would not shorten this.
//  4. The level-k slot covering cur's own level-(k-1) block holds nothing due
//     in that block: it is cascaded down at the moment cur enters the block,
//     so a ring index never means two laps at once. (What bucket files there
//     afterwards is due one lap later and waits for the next entry.)
//  5. Bounded flush: one probe moves the cursor no further than one tick past
//     the first occupied slot, never to the tick of a far event that happens
//     to head the near-run, and never past the bound of a RunUntil/RunBefore.
//     So while anything is bucketed cur is at most one tick ahead of the
//     clock, and the near-run holds about one tick of traffic. With every
//     level empty the cursor carries no information: peek parks it past
//     every tick, and place snaps it back to the clock before the next
//     insert.
//  6. A cancelled event is released where the scheduler meets it — flushing,
//     cascading, refilling, or at the near-run's head — and never travels
//     further. In particular a Pipe delivery slot killed by Pipe.Flush stays
//     lodged where it was (a slot, the near-run, spill) only until
//     the scheduler passes its timestamp: no later event fires before the
//     cursor has passed the dead arming's tick (3), flushed its slot (1) and
//     popped it off the near-run (2). Once the clock is strictly past that
//     timestamp the slot is free, which is what Pipe.arm's stale check
//     relies on.
const (
	wheelBits      = 8
	wheelSlotCount = 1 << wheelBits // slots per level
	wheelMask      = wheelSlotCount - 1
	wheelLevels    = 3
	// wheelGranularity is the level-0 tick width in seconds, a measured
	// constant: on the 120-node WAN trial 8 µs is fastest and 4-16 µs are
	// within 10 % of it (BENCH_23.json). A finer tick shortens the near-run
	// (less insertion work) but flushes more, emptier slots.
	wheelGranularity = 8e-6
	wheelInvGran     = 1 / wheelGranularity
	// wheelSpan0/1 are the level-0 and level-1 horizons in ticks;
	// wheelHorizon is where the overflow band begins.
	wheelSpan0   = 1 << wheelBits
	wheelSpan1   = 1 << (2 * wheelBits)
	wheelHorizon = 1 << (wheelLevels * wheelBits)
)

// tickOf is monotone in at, which invariant 3 rests on; timestamps too large
// for an int64 tick count share the last tick.
func tickOf(at Time) int64 {
	if !(at < maxTickTime) {
		return maxTick
	}
	return int64(at * wheelInvGran)
}

const (
	maxTick     = 1 << 62
	maxTickTime = maxTick * wheelGranularity
)

// wheelLevel is one ring of slots with an occupancy bitmap (one bit per
// slot) so advancing across empty regions costs a few word scans, not a
// per-slot walk.
type wheelLevel struct {
	slots    [wheelSlotCount][]*Event
	occupied [wheelSlotCount / 64]uint64
	n        int // events in this level
}

// nextOccupied returns the smallest occupied slot index >= from, or -1.
func (l *wheelLevel) nextOccupied(from int) int {
	if from >= wheelSlotCount {
		return -1
	}
	w := from >> 6
	word := l.occupied[w] >> (from & 63)
	if word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	for w++; w < len(l.occupied); w++ {
		if l.occupied[w] != 0 {
			return w<<6 + bits.TrailingZeros64(l.occupied[w])
		}
	}
	return -1
}

type wheel struct {
	// cur is the first tick not yet flushed (invariant 1). It and count lead
	// the struct so the run loop's probe stays on the cache line of the
	// near-run's header.
	cur    int64
	count  int // events in all levels
	levels [wheelLevels]wheelLevel
	// arena seeds first-touch slots with small capacity carved from one
	// block shared by all levels, so a fresh engine pays one allocation per
	// 256 slots it ever touches instead of one growth chain per slot — and
	// the sparse upper levels add none of their own. Slot backing arrays are
	// retained across flushes either way.
	arena []*Event
}

const wheelSlotSeedCap = 4

func (w *wheel) put(level, slot int, ev *Event) {
	l := &w.levels[level]
	s := l.slots[slot]
	if s == nil {
		if len(w.arena) < wheelSlotSeedCap {
			w.arena = make([]*Event, wheelSlotCount*wheelSlotSeedCap)
		}
		s = w.arena[:0:wheelSlotSeedCap]
		w.arena = w.arena[wheelSlotSeedCap:]
	}
	l.slots[slot] = append(s, ev)
	l.occupied[slot>>6] |= 1 << (slot & 63)
	l.n++
	w.count++
}

// take empties one slot and returns what it held. The backing array is
// retained, so steady-state flushing does not allocate.
func (w *wheel) take(level, slot int) []*Event {
	l := &w.levels[level]
	evs := l.slots[slot]
	l.slots[slot] = evs[:0]
	l.occupied[slot>>6] &^= 1 << (slot & 63)
	l.n -= len(evs)
	w.count -= len(evs)
	return evs
}

// Bands, in the order Stats.Placed counts them.
const (
	BandNear = iota
	BandL0
	BandL1
	BandL2
	BandOverflow
	numBands
)

// bucket files ev by the distance of its tick from the cursor.
func (e *Engine) bucket(ev *Event) int {
	w := &e.wheel
	t := tickOf(ev.at)
	d := t - w.cur
	switch {
	case d < 0:
		e.nearInsert(ev)
		return BandNear
	case d < wheelSpan0:
		w.put(0, int(t&wheelMask), ev)
		return BandL0
	case d < wheelSpan1:
		w.put(1, int((t>>wheelBits)&wheelMask), ev)
		return BandL1
	case d < wheelHorizon:
		w.put(2, int((t>>(2*wheelBits))&wheelMask), ev)
		return BandL2
	}
	e.over.push(ev)
	return BandOverflow
}

// rebucket moves events that left a coarser band (a cascaded slot, the
// overflow heap) to where they belong now. Cancelled events are released
// here instead of travelling further.
func (e *Engine) rebucket(ev *Event) {
	if ev.dead {
		e.release(ev)
		return
	}
	e.stats.Cascades++
	e.bucket(ev)
}

// cascade runs when cur enters a new level-0 block: the level-1 slot covering
// the block moves down, preceded — when the block also opens a level-1 lap —
// by the level-2 slot covering that lap and by whatever part of the overflow
// band the horizon now reaches (invariant 4).
func (e *Engine) cascade() {
	w := &e.wheel
	if w.cur&(wheelSpan1-1) == 0 {
		e.refill()
		for _, ev := range w.take(2, int((w.cur>>(2*wheelBits))&wheelMask)) {
			e.rebucket(ev)
		}
	}
	for _, ev := range w.take(1, int((w.cur>>wheelBits)&wheelMask)) {
		e.rebucket(ev)
	}
}

// refill moves every overflow event the horizon has reached into the wheel.
// It runs at each level-1 lap boundary and after each cursor jump, which is
// 65 536 ticks or more before any such event is due.
func (e *Engine) refill() {
	for len(e.over) > 0 && tickOf(e.over[0].at)-e.wheel.cur < wheelHorizon {
		e.rebucket(e.over.pop())
	}
}

// advance moves cur forward to at most lim, flushing the level-0 slots it
// passes into the near-run, and stops one tick past the first slot that held
// anything (invariant 5).
func (e *Engine) advance(lim int64) {
	w := &e.wheel
	for w.cur < lim && w.count > 0 {
		base := w.cur &^ wheelMask
		stop := min(lim, base+wheelSlotCount)
		if s := w.levels[0].nextOccupied(int(w.cur & wheelMask)); s >= 0 && base+int64(s) < stop {
			for _, ev := range w.take(0, s) {
				if ev.dead {
					e.release(ev)
				} else {
					e.nearInsert(ev)
				}
			}
			w.cur = base + int64(s) + 1
			lim = w.cur
		} else {
			if w.levels[0].n == 0 && w.levels[1].n == 0 {
				// Only level 2 holds anything, and none of it before the next
				// level-1 lap: skip the empty blocks in one step.
				stop = min(lim, w.cur|(wheelSpan1-1)+1)
			}
			w.cur = stop
		}
		if w.cur&wheelMask == 0 {
			e.cascade()
		}
	}
}

// peek advances the scheduler just far enough that the earliest live pending
// event heads the near-run, and returns it — or nil when every pending event
// has a tick >= bound, so none is due at or before the time bound was made
// from. The cursor never moves past bound, which keeps it at the clock across
// RunUntil/RunBefore calls that stop short of a far event. Engine.run tests
// the common case — a live head already behind the cursor — before calling.
func (e *Engine) peek(bound int64) *Event {
	w := &e.wheel
	for {
		if len(e.spill) > 0 {
			e.mergeSpill()
		}
		for e.head < len(e.near) && e.near[e.head].ev.dead {
			e.release(e.nearPop())
		}
		var head *Event
		lim := bound
		if e.head < len(e.near) {
			head = e.near[e.head].ev
			if lim = tickOf(head.at) + 1; w.cur >= lim {
				return head
			}
			lim = min(lim, bound)
		}
		if w.count == 0 {
			if len(e.over) == 0 {
				// Nothing outside the near-run: park the cursor past every
				// tick so run's inline test passes without a second condition
				// (place resets it before anything is bucketed again).
				w.cur = math.MaxInt64
				return head
			}
			if head != nil && evLess(&e.near[e.head], &e.over[0]) {
				return head
			}
			// The overflow top is the earliest pending event. With every
			// level empty the cursor may jump straight to it.
			ot := tickOf(e.over[0].at)
			if ot >= bound {
				return nil
			}
			w.cur = ot
			e.refill()
			continue
		}
		if w.cur >= bound {
			return nil
		}
		e.advance(lim)
		live := uint64(len(e.near) - e.head + len(e.spill))
		e.stats.Advances++
		e.stats.NearSum += live
		e.stats.NearMax = max(e.stats.NearMax, live)
	}
}
