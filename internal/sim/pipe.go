package sim

import (
	"fmt"
	"math"
)

// Pipe is a FIFO delay line: a ring of (at, seq, arg) entries delivered
// through a single self-rearming scheduler slot. It exploits the structure
// of constant-delay hops — entries posted in time order also fire in time
// order — to keep an arbitrarily long in-flight train (a high-BDP link can
// carry tens of thousands of packets) out of the engine's scheduling
// structures: the pipe occupies one scheduler slot for its head entry,
// re-armed as entries drain, so scheduler size is O(pipes), not O(in-flight
// packets).
//
// Determinism is preserved exactly. Post draws one engine sequence number
// per entry — the same draw Engine.PostArg would have made — and the pipe's
// scheduler slot is armed with the head entry's own (at, seq), so every
// delivery interleaves with every other event in precisely the
// engine-wide (at, seq) order the per-event implementation produced. If an
// entry is posted with a timestamp before the current tail (a hop whose
// delay was lowered mid-flight; packets then physically overtake), the pipe
// falls back to an ordinary engine event for that entry, again with
// identical semantics.
//
// Entries are fire-and-forget: they cannot be cancelled. Use Timers for
// anything that may need to be stopped.
type Pipe struct {
	e  *Engine
	fn func(any)

	buf   []pipeEntry
	head  int
	count int
	armed bool
	// slot is the pipe's own delivery event, re-armed in place for every
	// head entry. Pinning it (see Event.pinned) keeps the per-delivery
	// arm/fire cycle off the engine's event free list entirely.
	slot Event
	// stale marks the slot as killed by Flush while still lodged in a
	// scheduling structure: until the dead arming provably pops, arm must
	// not refresh the slot in place (a double insert would corrupt whichever
	// band holds it) and instead falls back to a dynamic engine event
	// (dyn/dynGen track the outstanding one so a later Flush can cancel it
	// too).
	stale  bool
	dyn    *Event
	dynGen uint64
}

type pipeEntry struct {
	at  Time
	seq uint64
	arg any
}

// NewPipe returns a pipe delivering entries through fn. One pipe per
// constant-delay stage (link propagation, access segment) is the intended
// granularity.
func (e *Engine) NewPipe(fn func(any)) *Pipe {
	if fn == nil {
		panic("sim: nil pipe function")
	}
	p := &Pipe{e: e, fn: fn}
	p.slot.pinned = true
	p.slot.afn = pipeFire
	p.slot.arg = p
	e.pipes = append(e.pipes, p)
	return p
}

// Len returns the number of queued entries.
func (p *Pipe) Len() int { return p.count }

// Post queues fn(arg) to fire delay seconds from now, drawing the entry's
// engine sequence number immediately (so same-instant ordering against
// other events matches per-event scheduling exactly).
func (p *Pipe) Post(delay float64, arg any) {
	if delay < 0 {
		delay = 0
	}
	p.PostAt(p.e.now+delay, arg)
}

// PostAt is Post at an absolute time, for a stage that computes its delivery
// instants itself (a link finishing serializations lazily posts at
// completion+delay, and now+(t-now) is not t in floating point). Like every
// absolute-time schedule it panics on a timestamp in the engine's past.
func (p *Pipe) PostAt(at Time, arg any) {
	e := p.e
	if at < e.now {
		panic(fmt.Sprintf("sim: pipe entry at %v before now %v", at, e.now))
	}
	seq := e.DrawSeq()
	if p.count > 0 && at < p.buf[(p.head+p.count-1)&(len(p.buf)-1)].at {
		// Out-of-order entry (the stage's delay shrank since the tail was
		// posted): deliver through the engine so it can overtake, exactly
		// as the per-event path did.
		e.scheduleSeq(at, seq, nil, p.fn, arg)
		return
	}
	p.push(pipeEntry{at: at, seq: seq, arg: arg})
	if !p.armed {
		p.arm()
	}
}

// NextAt returns the timestamp of the pipe's pending delivery — its oldest
// queued entry — or +Inf when nothing is queued.
func (p *Pipe) NextAt() Time {
	if p.count == 0 {
		return math.Inf(1)
	}
	return p.buf[p.head].at
}

// arm schedules the pipe's delivery slot at the head entry's (at, seq).
// Re-arming with a stored — hence older — seq is safe: the near-run orders
// by (at, seq), the head's timestamp is never in the engine's past, and the
// head outranks the entry that just fired, so a re-arm at the executing
// instant lands behind the executing event, in its own place. The slot is
// the pipe's own pinned Event, refreshed in place: by the time arm runs the
// previous arming has always been popped and released (release precedes
// every callback), so no scheduling structure still references it.
//
// Flush breaks that invariant: it kills an armed slot without popping it,
// leaving the dead arming lodged in a wheel slot or the near-run.
// While stale, arm falls back to a dynamically allocated event — unless the
// clock has moved strictly past the dead arming's timestamp, which proves it
// was released (the scheduler releases a dead event before any later-time
// event runs: wheel.go, invariant 6) and the slot is safe to reuse again.
func (p *Pipe) arm() {
	head := &p.buf[p.head]
	if p.stale {
		if p.e.now > p.slot.at {
			p.stale = false
		} else {
			p.dyn = p.e.scheduleSeq(head.at, head.seq, nil, pipeFire, p)
			p.dynGen = p.dyn.gen
			p.armed = true
			return
		}
	}
	ev := &p.slot
	ev.at = head.at
	ev.seq = head.seq
	ev.dead = false
	p.e.place(ev)
	p.armed = true
}

// pipeFire is the shared delivery trampoline; the scheduled event's arg is
// the pipe itself, so arming needs no per-pipe closure.
func pipeFire(a any) {
	p := a.(*Pipe)
	// Whichever event carried this firing is popped and released by now; if
	// it was the dynamic fallback, forget it so Flush cannot chase a recycled
	// event.
	p.dyn = nil
	ent := p.pop()
	if p.count > 0 {
		p.arm()
	} else {
		p.armed = false
	}
	p.fn(ent.arg)
}

// Flush drops every queued entry, calling drop with each entry's arg (oldest
// first) so callers can recycle pooled objects, and cancels the pending
// delivery. It models a fault — a link going administratively down loses its
// whole in-flight train — and is the one operation that kills the pipe's
// armed slot without popping it; arm's stale protocol (see above) keeps the
// scheduler consistent. The pipe remains usable: subsequent Posts deliver
// normally.
func (p *Pipe) Flush(drop func(arg any)) {
	for i := 0; i < p.count; i++ {
		ent := &p.buf[(p.head+i)&(len(p.buf)-1)]
		if drop != nil {
			drop(ent.arg)
		}
	}
	p.head, p.count = 0, 0
	if !p.armed {
		return
	}
	p.armed = false
	if p.dyn != nil {
		if p.dyn.gen == p.dynGen {
			p.dyn.dead = true
		}
		p.dyn = nil
		return
	}
	p.slot.dead = true
	p.stale = true
}

func (p *Pipe) push(ent pipeEntry) {
	if p.count == len(p.buf) {
		p.grow()
	}
	p.buf[(p.head+p.count)&(len(p.buf)-1)] = ent
	p.count++
}

func (p *Pipe) pop() pipeEntry {
	ent := p.buf[p.head]
	// The slot keeps its stale arg reference until overwritten: args are
	// engine-local pooled objects, so the pin is free and skipping the nil
	// store avoids a write barrier per delivery.
	p.head = (p.head + 1) & (len(p.buf) - 1)
	p.count--
	return ent
}

func (p *Pipe) grow() {
	n := len(p.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]pipeEntry, n)
	for i := 0; i < p.count; i++ {
		nb[i] = p.buf[(p.head+i)&(len(p.buf)-1)]
	}
	p.buf = nb
	p.head = 0
}
