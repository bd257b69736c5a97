// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a priority queue of timestamped events. Events
// scheduled for the same instant fire in the order they were scheduled
// (FIFO tie-breaking via a monotonically increasing sequence number), which
// makes every simulation in this repository bit-reproducible for a given
// set of RNG seeds.
//
// Time is a float64 number of seconds since the start of the simulation.
// Sub-nanosecond precision is irrelevant at the packet timescales simulated
// here; float64 keeps the arithmetic in experiment code simple.
//
// Engines are not safe for concurrent use; a simulation is a
// single-threaded computation by design. Parallel experiment runners (see
// internal/exp) give every trial its own Engine, so all engine-owned
// resources — the event free list included — stay goroutine-local.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Time is a simulated instant, in seconds since simulation start.
type Time = float64

// Event is a scheduled callback. The zero Event is invalid. Events are
// recycled through an engine-owned free list once they fire or are observed
// dead, so code outside this package must hold Timers, never Events.
type Event struct {
	at  Time
	seq uint64
	// gen invalidates Timers pointing at a recycled Event: a Timer is live
	// only while its stored generation matches the event's.
	gen uint64
	// fn is the niladic callback; afn+arg is the closure-free alternative
	// used by hot paths (packet delivery) to avoid allocating a capturing
	// closure per event. Exactly one of fn and afn is set.
	fn   func()
	afn  func(any)
	arg  any
	dead bool
	// pinned marks an event whose storage is owned by another object (a
	// Pipe's embedded delivery slot): release bumps its generation but never
	// hands it to the free list, so the owner can re-arm it in place.
	pinned bool
}

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled. A nil or zero Timer is inert: Stop and Active are safe to
// call.
type Timer struct {
	ev  *Event
	gen uint64
}

// live reports whether the timer still refers to the scheduling it was
// created for (the underlying event may be recycled after firing).
func (t *Timer) live() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer if it has not fired. It reports whether the call
// prevented the event from firing.
func (t *Timer) Stop() bool {
	if !t.live() || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// Active reports whether the timer is still pending. (A fired event is
// recycled before its callback runs, which bumps its generation, so a live
// undead event is by construction still queued.)
func (t *Timer) Active() bool {
	return t.live() && !t.ev.dead
}

// entry is an event with its ordering key inline, so comparisons stay
// within the near-run's own backing array instead of chasing an *Event cache
// line per compare.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

func evLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nearInsert puts ev into the near-run by insertion from the back. Nearly
// every arrival — the contents of the next slot, a timer re-armed a few
// microseconds out — belongs at or near the back. A crowd of k arrivals in
// random order inside one tick costs O(k²) moves; no workload makes one (see
// wheel.go).
func (e *Engine) nearInsert(ev *Event) {
	it := entry{at: ev.at, seq: ev.seq, ev: ev}
	if len(e.near) == cap(e.near) {
		// Reclaim the consumed prefix before growing.
		if e.head > 0 {
			e.near = e.near[:copy(e.near, e.near[e.head:])]
			e.head = 0
		}
		e.near = slices.Grow(e.near, 1)
	}
	n := e.near[:len(e.near)+1]
	i := len(n) - 1
	for ; i > e.head && evLess(&it, &n[i-1]); i-- {
		n[i] = n[i-1]
	}
	n[i] = it
	e.near = n
}

// nearPop removes and returns the head of the near-run. Consumed entries
// keep their stale pointers: events are engine-pooled, so the pin is free and
// skipping the clear avoids a write barrier per pop.
func (e *Engine) nearPop() *Event {
	ev := e.near[e.head].ev
	e.head++
	if e.head == len(e.near) {
		e.head = 0
		e.near = e.near[:0]
	}
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine. Engine is not safe for concurrent use: a simulation is a
// single-threaded computation by design.
type Engine struct {
	now     Time
	nextSeq uint64
	// near is the sorted run that decides firing order, consumed from
	// near[head]; wheel buckets everything later. See wheel.go for the bands
	// and their invariants.
	near  []entry
	head  int
	wheel wheel
	stats Stats
	// pipes lists every FIFO delay line (see pipe.go); entries there are
	// pending work the scheduler bands do not see.
	pipes []*Pipe
	// free recycles fired Events; its size is bounded by the peak number of
	// simultaneously queued events.
	free   []*Event
	nRun   uint64
	halted bool
	// stop, when set, is polled every stopPoll events (see SetStop).
	stop func() bool

	// cur is the sequence number of the executing event, the other half of
	// Precedes' position: math.MaxUint64 outside a callback, so everything at
	// or before the clock has happened. A Halt leaves it at the halting event,
	// where the engine stands until the next run.
	cur uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{cur: math.MaxUint64}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far. It is exposed for
// tests and benchmarks.
func (e *Engine) Processed() uint64 { return e.nRun }

// Stats counts what the scheduler did since NewEngine or the last Reset. It
// exists to keep wheel.go's claims checkable — which band placements land
// in, how long the near-run really is — and is plain field increments: no
// allocation, no flag, and nothing here ever reaches a report.
type Stats struct {
	// Placed counts placements by band (BandNear … BandL2).
	Placed [numBands]uint64
	// Cascades counts events a level-1 or level-2 slot handed on: moved down
	// a level, or filed back into level 2 to wait for a later lap.
	Cascades uint64
	// Advances counts the probes that had to move the wheel cursor; NearSum
	// and NearMax are the near-run's length right after each — when it is
	// longest — summed and maximised.
	Advances, NearSum, NearMax uint64
}

// Stats returns the scheduler counters.
func (e *Engine) Stats() Stats { return e.stats }

// DrawSeq draws the next sequence number without scheduling anything: the
// number a Post made at this point would have drawn. A component that keeps
// timestamped work of its own instead of posting events (a netem link's
// inbox) stamps it with (at, DrawSeq()) and asks Precedes where that work
// falls in the engine's total order. Such work is the component's, not the
// engine's: Pending does not see it, and Reset does not reclaim it.
func (e *Engine) DrawSeq() uint64 {
	s := e.nextSeq
	e.nextSeq++
	return s
}

// Precedes reports whether an event stamped (at, seq) would already have
// fired: inside a callback, whether it orders before the executing event;
// outside any callback, whether at is at or before the clock. After a Halt the
// engine stands just past the halting event until it runs again.
func (e *Engine) Precedes(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq < e.cur
}

func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release recycles a popped event. Bumping gen makes every Timer that still
// points here inert. The callback fields are deliberately left in place —
// the next schedule overwrites them all, and anything they pin (a pooled
// packet, a per-link closure) is engine-local state with the engine's own
// lifetime, so skipping three hot-path write barriers costs no memory that
// was not already being retained.
func (e *Engine) release(ev *Event) {
	ev.gen++
	if ev.pinned {
		return
	}
	e.free = append(e.free, ev)
}

// scheduleSeq queues a recycled or fresh event at (at, seq), the one event
// constructor. Every fresh schedule passes a DrawSeq number; a Pipe's dynamic
// events pass the seq its entry drew at Post time, so an entry delivered
// outside the ring keeps its engine-wide (at, seq) place. Scheduling in the
// past panics: it is always a bug in the caller, and silently reordering time
// would corrupt results.
func (e *Engine) scheduleSeq(at Time, seq uint64, fn func(), afn func(any), arg any) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	ev.dead = false
	e.place(ev)
	return ev
}

// nearMin is the near-run length below which an engine with nothing bucketed
// skips the wheel: with only a handful of pending events a direct sorted
// insert is cheaper than bucketing plus a slot flush. Measured, not assumed:
// without it a lone self-re-arming timer costs 25 ns per event instead of 14,
// and fig16 and table1 — which never hold more than this — run 3 % and 10 %
// longer (BENCH_23.json). Placement is purely a cost policy — the near-run
// decides (at, seq) order either way (see wheel.go) — so the threshold cannot
// change any simulation result.
const nearMin = 8

// place routes a ready event to its band.
func (e *Engine) place(ev *Event) {
	if e.wheel.count == 0 {
		if len(e.near)-e.head < nearMin {
			e.stats.Placed[BandNear]++
			e.nearInsert(ev)
			return
		}
		// With no level holding anything the cursor carries no information
		// and may be stale in either direction: a quiet stretch leaves it
		// behind the clock, peek parks it past every tick. Either way inserts
		// would land in the wrong band and the wheel would silently degrade
		// to one sorted run. The cursor invariants are vacuous here, so
		// snapping it to the clock is always safe.
		e.wheel.cur = tickOf(e.now)
	}
	e.stats.Placed[e.bucket(ev)]++
}

// At schedules fn at absolute time at.
func (e *Engine) At(at Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.scheduleSeq(at, e.DrawSeq(), fn, nil, nil)
	return &Timer{ev: ev, gen: ev.gen}
}

// After schedules fn delay seconds from now. Negative delays are clamped to
// zero so that floating-point jitter in callers cannot panic the engine.
func (e *Engine) After(delay float64, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// Rearm schedules fn delay seconds from now and stores the handle in *t,
// replacing whatever t previously referred to. It is the allocation-free
// equivalent of `*t = *e.After(delay, fn)` for callers that keep a Timer
// field alive across many reschedules (pacing loops, retransmission
// timers).
func (e *Engine) Rearm(t *Timer, delay float64, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if delay < 0 {
		delay = 0
	}
	ev := e.scheduleSeq(e.now+delay, e.DrawSeq(), fn, nil, nil)
	t.ev = ev
	t.gen = ev.gen
}

// Post schedules fn delay seconds from now, fire-and-forget: no Timer is
// allocated, so the event cannot be cancelled.
func (e *Engine) Post(delay float64, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if delay < 0 {
		delay = 0
	}
	e.scheduleSeq(e.now+delay, e.DrawSeq(), fn, nil, nil)
}

// PostAt is Post at an absolute time, for callers that computed the instant
// themselves (now+(at-now) is not at in floating point). Like At it panics on
// a timestamp in the engine's past.
func (e *Engine) PostAt(at Time, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.scheduleSeq(at, e.DrawSeq(), fn, nil, nil)
}

// PostArg schedules fn(arg) delay seconds from now, fire-and-forget.
// Because fn is typically a long-lived function value and arg rides in the
// event itself, hot paths can schedule per-packet work with zero closure
// allocations.
func (e *Engine) PostArg(delay float64, fn func(any), arg any) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if delay < 0 {
		delay = 0
	}
	e.scheduleSeq(e.now+delay, e.DrawSeq(), nil, fn, arg)
}

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// stopPoll is how many events run between two polls of the stop predicate:
// a power of two, so the test is one AND on the event counter.
const stopPoll = 1024

// SetStop installs the predicate the run loop polls every stopPoll executed
// events, between two events; nil (the default) polls nothing. When it
// reports true, Run or RunUntil returns as if its deadline had come. Nothing
// of this is sticky in the engine: a predicate that keeps reporting true
// makes every later run return at its first poll, which comes before any
// event runs. A stopped engine stands between events like one whose RunUntil
// returned, so Reset reclaims it the same way; Reset keeps the predicate.
// This is how a caller bounds a simulation from outside it — a cancelled
// context, a wall-clock deadline — without a second goroutine.
func (e *Engine) SetStop(stop func() bool) { e.stop = stop }

// Reset returns the engine to its initial state — clock at zero, no queued
// events, sequence counter restarted — while retaining every piece of
// allocated storage: the near-run's backing array, the wheel's slot arrays, each registered Pipe's ring, and the event free list.
// A reset engine therefore schedules its next simulation without the warm-up
// allocations a fresh NewEngine pays, and (because nextSeq restarts at zero)
// produces exactly the event sequence a fresh engine would.
//
// reclaim, when non-nil, is called with the arg of every dropped
// arg-carrying event and pipe entry, so callers can recycle pooled objects
// (in-flight packets) that would otherwise leak from their free lists.
// Pending niladic events are simply discarded. Timers handed out before the
// reset become inert (their generation no longer matches).
func (e *Engine) Reset(reclaim func(arg any)) {
	drop := func(ev *Event) {
		if reclaim != nil && ev.arg != nil && !ev.dead {
			// A pipe's own delivery event carries the pipe, not an entry; its
			// entries are reclaimed with the pipes below.
			if _, slot := ev.arg.(*Pipe); !slot {
				reclaim(ev.arg)
			}
		}
		e.release(ev)
	}
	for _, it := range e.near[e.head:] {
		drop(it.ev)
	}
	e.near, e.head = e.near[:0], 0
	w := &e.wheel
	for l := range w.levels {
		for wi, word := range w.levels[l].occupied {
			for ; word != 0; word &= word - 1 {
				for _, ev := range w.take(l, wi<<6+bits.TrailingZeros64(word)) {
					drop(ev)
				}
			}
		}
	}
	w.cur = 0
	e.stats = Stats{}
	for _, p := range e.pipes {
		for i := 0; i < p.count; i++ {
			ent := &p.buf[(p.head+i)&(len(p.buf)-1)]
			if reclaim != nil && ent.arg != nil {
				reclaim(ent.arg)
			}
		}
		p.head, p.count, p.armed = 0, 0, false
		// A slot marked stale by Flush is fully released here (every near-run
		// and wheel entry goes through release), so it is safe to
		// reuse immediately, and any dynamic fallback event is recycled the
		// same way.
		p.stale, p.dyn = false, nil
	}
	e.now = 0
	e.nextSeq = 0
	e.cur = math.MaxUint64
	e.nRun = 0
	e.halted = false
}

// DropPipe deregisters a pipe created with NewPipe so an abandoned delay
// stage (a torn-down route hop) does not accumulate in the engine's pipe
// list across topology re-specs. The pipe must be idle — Reset the engine
// first; dropping a pipe with queued entries would corrupt Pending.
// Dropping a pipe the engine does not own panics: a silent miss would hide
// respec bugs where a torn-down hop's pipe leaks into the next trial.
func (e *Engine) DropPipe(p *Pipe) {
	if p.count > 0 || p.armed {
		panic("sim: DropPipe on a non-empty pipe (Reset the engine first)")
	}
	for i, q := range e.pipes {
		if q == p {
			last := len(e.pipes) - 1
			e.pipes[i] = e.pipes[last]
			e.pipes[last] = nil
			e.pipes = e.pipes[:last]
			return
		}
	}
	panic("sim: DropPipe on a pipe not registered with this engine")
}

// Pending returns the number of live queued events, wherever they reside:
// the near-run, the timing wheel, or a Pipe (pipe entries
// cannot be cancelled, so all of them count as live). Work a component keeps
// outside the engine — a netem link's wire head and its inbox of
// DrawSeq-stamped arrivals — is not counted; such a component keeps an event
// of its own pending while it holds any.
func (e *Engine) Pending() int {
	n := 0
	for _, it := range e.near[e.head:] {
		if !it.ev.dead {
			n++
		}
	}
	for l := range e.wheel.levels {
		for s := range e.wheel.levels[l].slots {
			for _, ev := range e.wheel.levels[l].slots[s] {
				if !ev.dead {
					n++
				}
			}
		}
	}
	for _, p := range e.pipes {
		n += p.count
		if p.armed {
			n-- // the armed head is already counted as a scheduler event
		}
	}
	return n
}

// run is the dispatch loop behind Run and RunUntil: it executes
// every event with a timestamp <= lim, one at a time, in (at, seq) order.
// Same-instant events need no path of their own. One a callback schedules at
// its own instant enters the near-run behind its equals: a fresh seq outranks
// everything queued, and a Pipe re-arming with its next entry's older stored
// seq walks back to that entry's place, which is never before the executing
// event's. The near-run's order is the engine-wide total order.
func (e *Engine) run(lim Time) {
	e.halted = false
	bound := tickOf(lim) + 1
	for !e.halted {
		// Nested, not one &&-chain: the compiler then leaves the common case
		// at one AND and one branch instead of materializing a bool.
		if e.nRun&(stopPoll-1) == 0 && e.stop != nil {
			if e.stop() {
				break
			}
		}
		// The common case needs no probe: a live head already behind the
		// cursor (wheel.go, invariant 3). Spelled out here because a call per
		// event is measurable on a near-empty engine.
		var ev *Event
		if it := e.near[e.head:]; len(it) > 0 && !it[0].ev.dead && e.wheel.cur > tickOf(it[0].at) {
			ev = it[0].ev
		} else if ev = e.peek(bound); ev == nil {
			break
		}
		if ev.at > lim {
			break
		}
		e.nearPop()
		e.now = ev.at
		e.cur = ev.seq
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.release(ev)
		e.nRun++
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
	}
	if !e.halted {
		e.cur = math.MaxUint64
	}
}

// Run executes events until the queue drains, Halt is called or the stop
// predicate reports true.
func (e *Engine) Run() { e.run(math.Inf(1)) }

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// queued, so simulations can be resumed with further RunUntil calls.
func (e *Engine) RunUntil(deadline Time) {
	e.run(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}
