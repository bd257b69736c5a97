package sim

import (
	"testing"
)

// runScript schedules a fixed workload on e (heap, wheel, pipe and timer
// traffic) and returns the observed firing order. It is deliberately shaped
// so events land in every scheduling structure: a dense near-future band
// (wheel), same-instant ties (heap), a pipe train, and a cancelled timer.
func runScript(e *Engine) []int {
	var order []int
	rec := func(id int) func() { return func() { order = append(order, id) } }
	p := e.NewPipe(func(a any) { order = append(order, a.(int)) })
	for i := 0; i < 64; i++ {
		e.At(float64(i)*0.001, rec(i))
	}
	e.At(0.0005, rec(1000))
	e.At(0.0005, rec(1001)) // same-instant FIFO tie
	p.Post(0.0101, 2000)
	p.Post(0.0102, 2001)
	t := e.After(0.002, rec(3000))
	t.Stop()
	e.At(1.5, rec(4000)) // beyond the wheel horizon
	e.Run()
	return order
}

// TestEngineResetReproducesFreshRun is the arena guarantee at the engine
// level: after Reset, an identical workload fires in the identical order a
// fresh engine produces, and the clock/sequence state matches.
func TestEngineResetReproducesFreshRun(t *testing.T) {
	t.Parallel()
	fresh := NewEngine()
	want := runScript(fresh)

	reused := NewEngine()
	runScript(reused)
	for trial := 0; trial < 3; trial++ {
		reused.Reset(nil)
		if reused.Now() != 0 || reused.Pending() != 0 || reused.Processed() != 0 {
			t.Fatalf("after Reset: now=%v pending=%d processed=%d, want zeros",
				reused.Now(), reused.Pending(), reused.Processed())
		}
		got := runScript(reused)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events fired, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEngineResetReclaimsArgs verifies Reset hands every live arg-carrying
// event and pipe entry to the reclaim callback exactly once — heap events,
// wheel-bucketed events, and pipe entries — and nothing else: not cancelled
// timers, and not the pipe's armed delivery slot, whose arg is the pipe.
func TestEngineResetReclaimsArgs(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	fn := func(any) {}
	p := e.NewPipe(fn)
	want := map[int]bool{}
	// Heap band (near-empty engine keeps these in the heap).
	e.PostArg(0.5, fn, 1)
	e.PostArg(1.0, fn, 2)
	want[1], want[2] = true, true
	// Push enough events to open the wheel, all arg-carrying.
	for i := 10; i < 60; i++ {
		e.PostArg(0.001*float64(i), fn, i)
		want[i] = true
	}
	// Pipe entries, including the armed head.
	p.Post(0.25, 100)
	p.Post(0.26, 101)
	want[100], want[101] = true, true

	got := map[int]bool{}
	e.Reset(func(a any) {
		id, ok := a.(int)
		if !ok {
			t.Fatalf("reclaim got %T %v, not a dropped entry's arg", a, a)
		}
		if got[id] {
			t.Fatalf("arg %d reclaimed twice", id)
		}
		got[id] = true
	})
	for id := range want {
		if !got[id] {
			t.Errorf("arg %d not reclaimed", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("unexpected reclaim of %d", id)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after reset", e.Pending())
	}
}

// TestDropPipe verifies pipe deregistration (and its idle-only guard).
func TestDropPipe(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	fn := func(any) {}
	p1 := e.NewPipe(fn)
	p2 := e.NewPipe(fn)
	p1.Post(0.1, 1)
	e.Run()
	e.DropPipe(p1)
	p2.Post(0.1, 2)
	if got := e.Pending(); got != 1 {
		t.Fatalf("pending = %d after dropping an unrelated pipe, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DropPipe on a non-empty pipe must panic")
		}
	}()
	e.DropPipe(p2)
}

// TestSeedsReset pins that a reset chain replays exactly.
func TestSeedsReset(t *testing.T) {
	t.Parallel()
	s := NewSeeds(99)
	a, b := s.Next(), s.Next()
	s.Next()
	s.Reset(99)
	if got := s.Next(); got != a {
		t.Fatalf("first draw after Reset = %d, want %d", got, a)
	}
	if got := s.Next(); got != b {
		t.Fatalf("second draw after Reset = %d, want %d", got, b)
	}
}
