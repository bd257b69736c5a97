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

// eventHeap is a 4-ary min-heap ordered by (at, seq). It is implemented
// directly rather than via container/heap: the event loop is the hottest
// code in the repository and the interface-based heap spends most of its
// time in Less/Swap dynamic dispatch. The wider fan-out also halves the
// tree depth relative to a binary heap, which matters for the pop-heavy
// access pattern of a simulation. The ordering key rides inline in each
// slot so sift comparisons stay within the heap's own backing array
// instead of chasing an *Event cache line per compare.
type heapItem struct {
	at  Time
	seq uint64
	ev  *Event
}

type eventHeap []heapItem

func evLess(a, b *heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) siftUp(i int) {
	it := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(&it, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	it := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !evLess(&h[m], &it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}

func (e *Engine) heapPush(ev *Event) {
	e.events = append(e.events, heapItem{at: ev.at, seq: ev.seq, ev: ev})
	e.events.siftUp(len(e.events) - 1)
}

func (e *Engine) heapPop() *Event {
	h := e.events
	top := h[0].ev
	n := len(h) - 1
	h[0] = h[n]
	// h[n] keeps its stale pointer: events are engine-pooled, so the pin is
	// free and skipping the clear avoids a write barrier per pop.
	e.events = h[:n]
	if n > 0 {
		e.events.siftDown(0)
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine. Engine is not safe for concurrent use: a simulation is a
// single-threaded computation by design.
type Engine struct {
	now     Time
	nextSeq uint64
	// events is the residual heap: events inside the current wheel tick,
	// events beyond the wheel horizon, and the contents of flushed wheel
	// slots. Final ordering is always decided here, by (at, seq).
	events eventHeap
	// wheel buckets the dense near-future band of timers so their
	// insertion is O(1) instead of an O(log n) heap push (see wheel.go).
	wheel wheel
	// pipes lists every FIFO delay line (see pipe.go); entries there are
	// pending work the heap and wheel do not see.
	pipes []*Pipe
	// free recycles fired Events; its size is bounded by the peak number of
	// simultaneously queued events.
	free   []*Event
	nRun   uint64
	halted bool

	// batch is the burst-dispatch scratch: every live event sharing the
	// earliest pending timestamp is popped here in one scheduler probe and
	// executed in seq order without re-probing the wheel or heap between
	// events (see Run). Events scheduled *during* the burst at exactly the
	// burst timestamp join the batch in place instead of round-tripping
	// through the heap; batchPos is the index of the entry currently
	// executing. batch is empty whenever the engine is not inside Run /
	// RunUntil.
	batch    []*Event
	batchPos int
	inBurst  bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far. It is exposed for
// tests and benchmarks.
func (e *Engine) Processed() uint64 { return e.nRun }

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

// schedule queues a recycled or fresh event. Scheduling in the past panics:
// it is always a bug in the caller, and silently reordering time would
// corrupt results.
func (e *Engine) schedule(at Time, fn func(), afn func(any), arg any) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	ev.dead = false
	e.nextSeq++
	e.place(ev)
	return ev
}

// scheduleSeq queues fn(arg) at an absolute time under a sequence number the
// caller already drew from nextSeq. It exists for Pipes, which draw one seq
// per entry at Post time and arm their delivery slot with the head entry's
// stored (at, seq) so batched entries keep their original engine-wide order.
func (e *Engine) scheduleSeq(at Time, seq uint64, afn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	ev.fn = nil
	ev.afn = afn
	ev.arg = arg
	ev.dead = false
	e.place(ev)
}

// wheelMinHeap is the heap size below which place bypasses the wheel: with
// only a handful of pending events a direct O(log n) push/pop is cheaper
// than bucketing plus a slot flush. Placement is purely a cost policy — the
// heap decides final (at, seq) order either way (see wheel.go) — so the
// threshold cannot change any simulation result.
const wheelMinHeap = 8

// place routes a ready event to the timing wheel when it lands in the
// bucketable band, else to the heap.
func (e *Engine) place(ev *Event) {
	if e.inBurst && ev.at == e.now {
		// Scheduled during a burst at exactly the burst timestamp: it belongs
		// to the batch being executed, so insert it in seq position directly
		// instead of round-tripping through the heap. Fresh sequence numbers
		// (every Post/After/Rearm) exceed all batch seqs and append; only a
		// Pipe re-arming its delivery slot with a stored older seq has to
		// walk backward, and never past the executing position (the pipe's
		// next head always outranks the entry that just fired).
		e.batchInsert(ev)
		return
	}
	if len(e.events) < wheelMinHeap || ev.at <= e.events[0].at {
		// Near-empty engine, or an event earlier than everything already
		// queued: it pops before anything could accumulate above it, so
		// bucketing buys nothing and the flush round-trip is pure cost.
		e.heapPush(ev)
		return
	}
	if e.wheel.count == 0 {
		// An empty wheel's cursor can be arbitrarily stale in either
		// direction: a long quiet stretch leaves it behind the clock, and
		// an empty-wheel flush toward a far heap top fast-forwards it past
		// the horizon (wheelFlushBelow's count==0 jump). Either way every
		// insert would look out-of-band and the wheel would silently
		// degrade to pure-heap scheduling. With no events and an empty
		// level 1 the cursor invariants are vacuous, so snapping it to the
		// clock is always safe.
		e.wheel.cur = tickOf(e.now)
	}
	if !e.wheel.insert(ev) {
		e.heapPush(ev)
	}
}

// At schedules fn at absolute time at.
func (e *Engine) At(at Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.schedule(at, fn, nil, nil)
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
	ev := e.schedule(e.now+delay, fn, nil, nil)
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
	e.schedule(e.now+delay, fn, nil, nil)
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
	e.schedule(e.now+delay, nil, fn, arg)
}

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Reset returns the engine to its initial state — clock at zero, no queued
// events, sequence counter restarted — while retaining every piece of
// allocated storage: the heap's backing array, the wheel's slot arrays, each
// registered Pipe's ring, and the event free list. A reset engine therefore
// schedules its next simulation without the warm-up allocations a fresh
// NewEngine pays, and (because nextSeq restarts at zero) produces exactly
// the event sequence a fresh engine would.
//
// reclaim, when non-nil, is called with the arg of every dropped
// arg-carrying event and pipe entry, so callers can recycle pooled objects
// (in-flight packets) that would otherwise leak from their free lists.
// Pending niladic events are simply discarded. Timers handed out before the
// reset become inert (their generation no longer matches).
func (e *Engine) Reset(reclaim func(arg any)) {
	for i := range e.events {
		ev := e.events[i].ev
		if reclaim != nil && ev.arg != nil && !ev.dead {
			reclaim(ev.arg)
		}
		e.release(ev)
	}
	e.events = e.events[:0]
	for l := range e.wheel.levels {
		lvl := &e.wheel.levels[l]
		for w, word := range lvl.occupied {
			for word != 0 {
				s := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				for _, ev := range lvl.slots[s] {
					if reclaim != nil && ev.arg != nil && !ev.dead {
						reclaim(ev.arg)
					}
					e.release(ev)
				}
				lvl.slots[s] = lvl.slots[s][:0]
			}
			lvl.occupied[w] = 0
		}
	}
	e.wheel.cur = 0
	e.wheel.count = 0
	for _, p := range e.pipes {
		for i := 0; i < p.count; i++ {
			ent := &p.buf[(p.head+i)&(len(p.buf)-1)]
			if reclaim != nil && ent.arg != nil {
				reclaim(ent.arg)
			}
		}
		p.head, p.count, p.armed = 0, 0, false
		// A slot marked stale by Flush is fully released below (every heap,
		// wheel and batch entry goes through release), so it is safe to reuse
		// immediately, and any dynamic fallback event is recycled the same way.
		p.stale, p.dyn = false, nil
	}
	if e.inBurst {
		// Reset issued from inside a burst callback: drop the unexecuted
		// remainder of the batch so runBatch's loop terminates cleanly.
		for i := e.batchPos + 1; i < len(e.batch); i++ {
			ev := e.batch[i]
			if reclaim != nil && ev.arg != nil && !ev.dead {
				reclaim(ev.arg)
			}
			e.release(ev)
		}
		e.batch = e.batch[:e.batchPos+1]
	}
	e.now = 0
	e.nextSeq = 0
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
// the heap, the timing wheel, or a Pipe (pipe entries cannot be cancelled,
// so all of them count as live).
func (e *Engine) Pending() int {
	n := 0
	for i := range e.events {
		if !e.events[i].ev.dead {
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
			n-- // the armed head is already counted as a heap/wheel event
		}
	}
	if e.inBurst {
		// Called from inside a burst callback: the batch entries past the
		// executing position are pending too (the executing entry itself is
		// already released).
		for i := e.batchPos + 1; i < len(e.batch); i++ {
			if !e.batch[i].dead {
				n++
			}
		}
	}
	return n
}

// runAt dispatches every live event at t0, the timestamp peekLive just
// returned (so the heap top is live and at t0). The wheel needs no further
// probe: peekLive has already flushed it far enough that every remaining
// wheel event is strictly later than t0 (see wheel.go's slack argument), so
// a same-timestamp run can only live at the heap top. When the top event is
// alone at t0 — the overwhelmingly common case outside synchronized packet
// trains — it dispatches inline without touching the batch scratch; larger
// runs are popped into the batch (successive pops from the (at, seq)-ordered
// heap arrive in seq order, releasing cancelled events on the way) and
// executed by runBatch.
func (e *Engine) runAt(t0 Time) {
	ev := e.heapPop()
	if len(e.events) == 0 || e.events[0].at != t0 {
		// Alone at t0: dispatch inline, skipping batch collection — but keep
		// the burst machinery armed (batchPos -1 = nothing executing) so any
		// same-instant events the callback schedules still chain into the
		// batch instead of round-tripping through the heap; a
		// delivery→ack→forward cascade fires entirely at one instant.
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.release(ev)
		e.now = t0
		e.nRun++
		e.batch = e.batch[:0]
		e.batchPos = -1
		e.inBurst = true
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		if len(e.batch) == 0 {
			e.inBurst = false
			return
		}
		if e.halted {
			// Halt stops after the event that called it: hand the chained
			// remainder back to the heap, exactly as runBatch does.
			for _, b := range e.batch {
				e.heapPush(b)
			}
			e.batch = e.batch[:0]
			e.inBurst = false
			return
		}
		e.runBatch()
		return
	}
	e.batch = append(e.batch[:0], ev)
	for len(e.events) > 0 && e.events[0].at == t0 {
		next := e.heapPop()
		if next.dead {
			e.release(next)
			continue
		}
		e.batch = append(e.batch, next)
	}
	e.now = t0
	e.runBatch()
}

// batchInsert places an event scheduled during the current burst (at exactly
// the burst timestamp) into seq position within the batch, strictly after
// the executing entry. The common case — a fresh sequence number larger than
// everything queued — is a pure append.
func (e *Engine) batchInsert(ev *Event) {
	b := append(e.batch, ev)
	i := len(b) - 1
	for i > e.batchPos+1 && b[i-1].seq > ev.seq {
		b[i] = b[i-1]
		i--
	}
	b[i] = ev
	e.batch = b
}

// runBatch executes the collected batch in index (hence seq) order without
// re-probing the scheduler between events. Semantics match per-event
// dispatch exactly: each entry is dead-checked at execution time, not
// collection time, so a Timer.Stop issued by an earlier same-instant
// callback still cancels a later one; each event is released immediately
// before its callback runs, exactly as Run's heap fast path does; Halt mid-batch pushes the
// unexecuted remainder back into the heap.
func (e *Engine) runBatch() {
	e.inBurst = true
	for e.batchPos = 0; e.batchPos < len(e.batch); e.batchPos++ {
		ev := e.batch[e.batchPos]
		if ev.dead {
			e.release(ev)
			continue
		}
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.release(ev)
		e.nRun++
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		if e.halted {
			for i := e.batchPos + 1; i < len(e.batch); i++ {
				e.heapPush(e.batch[i])
			}
			break
		}
	}
	// Entries keep their stale pointers until overwritten: events are
	// engine-pooled, so the pin is free and skipping the clears avoids a
	// write barrier per slot.
	e.batch = e.batch[:0]
	e.inBurst = false
}

// Run executes events until the queue drains or Halt is called. The loop
// dispatches in bursts: one scheduler probe finds the earliest live
// timestamp, then every event sharing it is popped and executed in seq
// order without re-probing the wheel or heap in between (same-instant packet
// trains — an incast tick, a saturated link's dequeue+delivery+feed cluster
// — are the common case at high BDP). Execution order is identical to
// per-event dispatch: the batch preserves the engine-wide (at, seq) total
// order, and events scheduled during the burst at the burst instant join
// the batch in seq position (see place).
func (e *Engine) Run() {
	e.halted = false
	for !e.halted {
		// Wheel-empty fast path: with nothing bucketed, probing the
		// scheduler is a single comparison, so batching would amortize
		// nothing — dispatch straight off the heap as before.
		if e.wheel.count == 0 {
			if len(e.events) == 0 {
				return
			}
			if ev := e.events[0].ev; !ev.dead {
				e.heapPop()
				at, fn, afn, arg := ev.at, ev.fn, ev.afn, ev.arg
				e.release(ev)
				e.now = at
				e.nRun++
				if fn != nil {
					fn()
				} else {
					afn(arg)
				}
				continue
			}
		}
		// Wheel active: a live heap top strictly below the wheel cursor
		// needs no flush — the probe is two comparisons, done inline. The
		// slow probe only runs when the wheel actually has to rotate.
		if len(e.events) > 0 {
			it := &e.events[0]
			if !it.ev.dead && e.wheel.cur > tickOf(it.at)+1 {
				e.runAt(it.at)
				continue
			}
		}
		top := e.peekLiveSlow()
		if top == nil {
			return
		}
		e.runAt(top.at)
	}
}

// NextEventAt returns the timestamp of the earliest live pending event, or
// +Inf when the engine is drained. Probing may flush timing-wheel slots into
// the heap, which is placement only and cannot change any result.
func (e *Engine) NextEventAt() Time {
	if ev := e.peekLive(); ev != nil {
		return ev.at
	}
	return math.Inf(1)
}

// RunBefore executes every event with a timestamp strictly below limit and
// leaves the clock at the last executed event. Unlike RunUntil it neither
// runs events at exactly limit nor force-advances the clock: conservative
// shard rounds execute half-open [now, limit) windows, and only the group
// coordinator knows the final deadline (see ShardGroup).
func (e *Engine) RunBefore(limit Time) {
	e.halted = false
	for !e.halted {
		if len(e.events) > 0 {
			it := &e.events[0]
			if !it.ev.dead && (e.wheel.count == 0 || e.wheel.cur > tickOf(it.at)+1) {
				if it.at >= limit {
					return
				}
				e.runAt(it.at)
				continue
			}
		}
		next := e.peekLiveSlow()
		if next == nil || next.at >= limit {
			return
		}
		e.runAt(next.at)
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// queued, so simulations can be resumed with further RunUntil calls.
// Dispatch is burst-mode, as in Run.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted {
		// Inline probe, as in Run: a live heap top that is provably the
		// earliest pending event (wheel empty or strictly above it) settles
		// the deadline comparison without the slow probe.
		if len(e.events) > 0 {
			it := &e.events[0]
			if !it.ev.dead && (e.wheel.count == 0 || e.wheel.cur > tickOf(it.at)+1) {
				if it.at > deadline {
					break
				}
				e.runAt(it.at)
				continue
			}
		}
		next := e.peekLiveSlow()
		if next == nil || next.at > deadline {
			break
		}
		e.runAt(next.at)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
