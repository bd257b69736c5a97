package sim

import (
	"testing"
)

// TestPipeFlushDropsPending flushes a loaded pipe mid-run: every buffered
// entry must be handed to the drop callback exactly once, nothing may be
// delivered afterwards, and the engine must keep running past the dead
// armed slot without firing it.
func TestPipeFlushDropsPending(t *testing.T) {
	e := NewEngine()
	var delivered, dropped []int
	p := e.NewPipe(func(a any) { delivered = append(delivered, a.(int)) })
	e.At(0, func() {
		for i := 0; i < 5; i++ {
			p.Post(1+float64(i)*0.1, i)
		}
	})
	e.At(0.5, func() { p.Flush(func(a any) { dropped = append(dropped, a.(int)) }) })
	e.Run()
	if len(delivered) != 0 {
		t.Fatalf("delivered %v after flush, want none", delivered)
	}
	if len(dropped) != 5 {
		t.Fatalf("dropped %v, want all 5 entries", dropped)
	}
	for i, v := range dropped {
		if v != i {
			t.Fatalf("drop order %v, want FIFO order", dropped)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after flush, want 0", p.Len())
	}
}

// TestPipeFlushNilDrop covers the drop-less flush: entries are discarded
// silently.
func TestPipeFlushNilDrop(t *testing.T) {
	e := NewEngine()
	n := 0
	p := e.NewPipe(func(any) { n++ })
	e.At(0, func() { p.Post(1, "x") })
	e.At(0.5, func() { p.Flush(nil) })
	e.Run()
	if n != 0 || p.Len() != 0 {
		t.Fatalf("after nil-drop flush: deliveries=%d Len=%d, want 0/0", n, p.Len())
	}
}

// TestPipeFlushRepostBeforeSlotTime re-arms a flushed pipe while the dead
// slot event is still scheduled in the future: the pipe must fall back to a
// dynamically allocated event (the slot cannot be re-used until it pops) and
// deliver at exactly the posted time, even though that time precedes the
// dead slot's.
func TestPipeFlushRepostBeforeSlotTime(t *testing.T) {
	e := NewEngine()
	type arrival struct {
		v  string
		at float64
	}
	var got []arrival
	p := e.NewPipe(func(a any) { got = append(got, arrival{a.(string), e.Now()}) })
	e.At(0, func() { p.Post(1, "doomed") }) // slot armed for t=1
	e.At(0.5, func() {
		p.Flush(nil)
		p.Post(0.2, "fresh") // arrives t=0.7, before the dead slot's t=1
	})
	e.Run()
	if len(got) != 1 || got[0].v != "fresh" || got[0].at != 0.7 {
		t.Fatalf("got %+v, want [{fresh 0.7}]", got)
	}
}

// TestPipeFlushRepostAfterSlotTime re-arms a flushed pipe only after the
// clock has passed the dead slot's timestamp, which proves the dead slot
// already popped (dead events at the near-run's head are released before any
// later-time event runs) and the pipe may re-use it directly.
func TestPipeFlushRepostAfterSlotTime(t *testing.T) {
	e := NewEngine()
	type arrival struct {
		v  string
		at float64
	}
	var got []arrival
	p := e.NewPipe(func(a any) { got = append(got, arrival{a.(string), e.Now()}) })
	e.At(0, func() { p.Post(1, "doomed") })
	e.At(0.5, func() { p.Flush(nil) })
	e.At(1.5, func() { p.Post(0.1, "late") })
	e.Run()
	if len(got) != 1 || got[0].v != "late" || got[0].at != 1.6 {
		t.Fatalf("got %+v, want [{late 1.6}]", got)
	}
}

// TestPipeFlushTwice flushes, re-arms through the dynamic-event fallback,
// flushes again (killing the dynamic event), and re-arms once more: the
// double-kill path must not deliver stale entries or fire dead events.
func TestPipeFlushTwice(t *testing.T) {
	e := NewEngine()
	type arrival struct {
		v  string
		at float64
	}
	var got []arrival
	var dropped []string
	p := e.NewPipe(func(a any) { got = append(got, arrival{a.(string), e.Now()}) })
	drop := func(a any) { dropped = append(dropped, a.(string)) }
	e.At(0, func() { p.Post(1, "a") })   // slot armed for t=1
	e.At(0.3, func() { p.Flush(drop) })  // slot dead
	e.At(0.4, func() { p.Post(1, "b") }) // dyn event for t=1.4
	e.At(0.5, func() { p.Flush(drop) })  // dyn dead
	e.At(0.6, func() { p.Post(0.1, "c") })
	e.Run()
	if len(got) != 1 || got[0].v != "c" || got[0].at != 0.7 {
		t.Fatalf("got %+v, want only {c 0.7}", got)
	}
	if len(dropped) != 2 || dropped[0] != "a" || dropped[1] != "b" {
		t.Fatalf("dropped %v, want [a b]", dropped)
	}
}

// TestPipeFlushSurvivesEngineReset flushes a pipe, resets the engine, and
// runs a fresh trial on the same pipe: Reset must clear the stale-slot
// bookkeeping so the recycled slot arms normally.
func TestPipeFlushSurvivesEngineReset(t *testing.T) {
	e := NewEngine()
	var got []string
	p := e.NewPipe(func(a any) { got = append(got, a.(string)) })
	e.At(0, func() { p.Post(1, "old") })
	e.At(0.5, func() { p.Flush(nil) })
	e.RunUntil(0.5)
	e.Reset(nil)
	got = got[:0]
	e.At(0, func() { p.Post(0.25, "new") })
	e.Run()
	if len(got) != 1 || got[0] != "new" {
		t.Fatalf("after reset: got %v, want [new]", got)
	}
	if e.Now() != 0.25 {
		t.Fatalf("clock = %v, want 0.25", e.Now())
	}
}

// TestPipeFlushKeepsLaterTraffic pins that a flush only affects entries
// present at flush time: posts after the flush flow through untouched, in
// FIFO order, interleaved with ordinary events.
func TestPipeFlushKeepsLaterTraffic(t *testing.T) {
	e := NewEngine()
	var got []int
	p := e.NewPipe(func(a any) { got = append(got, a.(int)) })
	e.At(0, func() {
		p.Post(2, -1) // flushed before delivery
		p.Post(2, -2)
	})
	e.At(0.5, func() { p.Flush(nil) })
	e.At(1, func() {
		for i := 0; i < 4; i++ {
			p.Post(0.5+float64(i)*0.01, i)
		}
	})
	e.Run()
	if len(got) != 4 {
		t.Fatalf("delivered %v, want the 4 post-flush entries", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("post-flush FIFO order broken: %v", got)
		}
	}
}
