package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []float64
	var rec func()
	rec = func() {
		got = append(got, e.Now())
		if e.Now() < 5 {
			e.After(1, rec)
		}
	}
	e.After(1, rec)
	e.Run()
	if len(got) != 5 {
		t.Fatalf("recursive scheduling ran %d times, want 5", len(got))
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(1, func() { fired = true })
	if !tm.Active() {
		t.Error("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Error("Stop should report success on a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report failure")
	}
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	var nilT *Timer
	if nilT.Stop() || nilT.Active() {
		t.Error("nil timer must be inert")
	}
}

func TestRunUntilResumes(t *testing.T) {
	e := NewEngine()
	var got []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(2.5)
	if len(got) != 2 {
		t.Fatalf("RunUntil(2.5) ran %d events, want 2", len(got))
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 4 {
		t.Fatalf("resume ran %d events total, want 4", len(got))
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.At(1, func() {})
}

func TestHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++; e.Halt() })
	e.At(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("Halt did not stop the loop: n=%d", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Fatalf("second Run did not resume: n=%d", n)
	}
}

// Property: any set of scheduled times is executed in sorted order.
// TestStopPredicate pins the engine's stop poll: the predicate is called
// once every stopPoll executed events, the run returns at the first poll that
// reports true, a later run returns at its first poll before any event runs,
// Reset keeps the predicate, and an engine without one runs to its deadline.
func TestStopPredicate(t *testing.T) {
	e := NewEngine()
	var spin func()
	spin = func() { e.Post(0, spin) } // simulated time never advances
	e.Post(0, spin)
	polls := 0
	e.SetStop(func() bool { polls++; return polls == 3 })
	e.RunUntil(1)
	if polls != 3 || e.Processed() != 2*stopPoll {
		t.Fatalf("stopped after %d polls and %d events, want 3 and %d", polls, e.Processed(), 2*stopPoll)
	}
	e.SetStop(func() bool { polls++; return true })
	e.RunUntil(2)
	if polls != 4 || e.Processed() != 2*stopPoll {
		t.Fatalf("a stopped engine's next run made %d polls and ran %d events, want 4 and %d", polls, e.Processed(), 2*stopPoll)
	}

	e.Reset(nil)
	e.Post(0, spin)
	e.RunUntil(1)
	if polls != 5 || e.Processed() != 0 {
		t.Fatalf("after Reset: %d polls, %d events, want the kept predicate to stop the run at once", polls, e.Processed())
	}

	e.SetStop(nil)
	e.Reset(nil)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 3*stopPoll {
			e.Post(0.001, tick)
		}
	}
	e.Post(0, tick)
	e.Run()
	if n != 3*stopPoll {
		t.Fatalf("an engine without a predicate ran %d events, want %d", n, 3*stopPoll)
	}
}

func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var got []float64
		for _, d := range delays {
			at := float64(d) / 100
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(delays)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsIndependence(t *testing.T) {
	s1 := NewSeeds(1)
	s2 := NewSeeds(1)
	for i := 0; i < 10; i++ {
		if s1.Next() != s2.Next() {
			t.Fatal("same root seed must derive the same chain")
		}
	}
	s3 := NewSeeds(2)
	same := 0
	s4 := NewSeeds(1)
	for i := 0; i < 100; i++ {
		if s3.Next() == s4.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different roots collided %d times", same)
	}
}
