package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// wheelHorizon is level 2's reach in ticks, one lap of its ring: an event
// further out than this from the cursor waits in its slot for a later lap.
const wheelHorizon = 1 << (wheelLevels * wheelBits)

// pastReach counts the level-2 events that wait for a later lap.
func pastReach(e *Engine) int {
	n := 0
	for _, s := range e.wheel.levels[2].slots {
		for _, ev := range s {
			if tickOf(ev.at)-e.wheel.cur >= wheelHorizon {
				n++
			}
		}
	}
	return n
}

// loadEngine parks enough far-future ballast that place() engages the
// timing wheel (the nearMin bypass is a cost policy for near-empty
// engines; these tests want the wheel exercised). Half of it heads the
// near-run, half waits in level 2 past its reach.
func loadEngine(e *Engine) {
	for i := 0; i < 2*nearMin; i++ {
		e.At(1e6+float64(i), func() {})
	}
}

// TestWheelOrderAcrossBands schedules events in every scheduling band — the
// near-run (same tick) and levels 0 to 2, within level 2's reach and laps
// beyond it — and asserts global (at, seq) execution order.
func TestWheelOrderAcrossBands(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	delays := []float64{
		0, 1e-9, wheelGranularity / 2, // same tick
		wheelGranularity * 3, 0.001, // level 0
		0.003, 0.01, 0.1, // level 1
		0.9, 2.0, 10.0, 100.0, // level 2
		200.0, 1000.0, // beyond the horizon
	}
	var got []float64
	for _, d := range delays {
		d := d
		e.After(d, func() { got = append(got, d) })
	}
	e.RunUntil(2000)
	if len(got) != len(delays) {
		t.Fatalf("ran %d events, want %d", len(got), len(delays))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	for _, busy := range []bool{false, true} {
		t.Run(fmt.Sprintf("far/busy=%v", busy), func(t *testing.T) { wheelRowFar(t, busy) })
	}
	t.Run("refiled-once", wheelRowRefiledOnce)
}

// wheelRowFar posts events at 1e9 s, 3e12 s and +Inf, alone or beside a busy
// 1 ms chain. Run must fire them in (at, seq) order, and reach them by
// jumping the cursor to their laps: walking there would take over 10¹² laps.
func wheelRowFar(t *testing.T, busy bool) {
	e := NewEngine()
	loadEngine(e)
	var m burstModel
	var fired []int
	post := func(at float64, then func()) {
		id := m.add(at)
		e.At(at, func() {
			fired = append(fired, id)
			if then != nil {
				then()
			}
		})
	}
	for _, at := range []float64{3e12, 1e9, math.Inf(1), 1e9, math.Inf(1), 3e12} {
		post(at, nil)
	}
	if busy {
		left := 2000
		var chain func()
		chain = func() {
			if left--; left > 0 {
				post(e.Now()+1e-3, chain)
			}
		}
		post(1e-3, chain)
	}
	if pastReach(e) == 0 {
		t.Fatal("test bug: nothing waits past level 2's reach")
	}
	start := time.Now()
	e.Run()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Run took %v to reach the far events, want < 100 ms", took)
	}
	checkOrder(t, fired, &m)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", e.Pending())
	}
}

// wheelRowRefiledOnce keeps the cursor walking every lap (a 0.3 s ticker in
// level 1) past an event 1000 s out, which waits in its level-2 slot and is
// filed back there each 134 s the cursor laps it: it must stay put until its
// own lap and fire exactly once, at its time.
func wheelRowRefiledOnce(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	const far = 1000.3
	reach := far - wheelHorizon*wheelGranularity // the far event is past reach before this
	fires, waited := 0, 0
	var at float64
	tm := e.At(far, func() { fires++; at = e.Now() })
	var tick func()
	tick = func() {
		if e.Now() < reach && tm.Active() && slices.Contains(e.wheel.levels[2].slots[tickOf(far)>>(2*wheelBits)&wheelMask], tm.ev) {
			waited++
		}
		if e.Now() < far+1 {
			e.After(0.3, tick)
		}
	}
	e.After(0.3, tick)
	e.RunUntil(far + 2)
	if fires != 1 || at != far {
		t.Fatalf("the far event fired %d times (last at %v), want once at %v", fires, at, far)
	}
	if ticks := int(reach / 0.3); waited < ticks {
		t.Fatalf("the far event was in its level-2 slot on %d of the %d ticks before its lap, want all", waited, ticks)
	}
}

// TestWheelFIFOTieBreak pins same-timestamp FIFO across bands: events
// scheduled at the same instant from different code paths must fire in
// scheduling order even when some were bucketed and flushed.
func TestWheelFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	var got []int
	const at = 0.05 // level 1
	for i := 0; i < 50; i++ {
		i := i
		e.At(at, func() { got = append(got, i) })
	}
	e.RunUntil(1)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO after wheel flush: %v", got)
		}
	}
}

// TestWheelTimerStop cancels wheel-resident timers; they must not fire and
// must be recycled without disturbing live events.
func TestWheelTimerStop(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	fired := 0
	var timers []*Timer
	for i := 0; i < 20; i++ {
		timers = append(timers, e.After(0.01+float64(i)*0.001, func() { fired++ }))
	}
	for i, tm := range timers {
		if i%2 == 0 && !tm.Stop() {
			t.Fatalf("Stop failed on pending wheel timer %d", i)
		}
	}
	e.RunUntil(1)
	if fired != 10 {
		t.Fatalf("fired %d, want 10 (half stopped)", fired)
	}
}

// TestWheelLongIdle exercises block-crossing and cascade over gaps much
// wider than a level-0 block (and one wider than a level-1 lap), and an
// empty-wheel clock jump.
func TestWheelLongIdle(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	var got []float64
	for _, d := range []float64{0.0001, 0.5, 0.50001, 1.04, 300} {
		d := d
		e.After(d, func() { got = append(got, d) })
	}
	e.RunUntil(1e5)
	want := []float64{0.0001, 0.5, 0.50001, 1.04, 300}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestWheelOrderProperty is the quick-check ordering property with the
// wheel engaged: any multiset of times executes in sorted order, with ties
// in scheduling order.
func TestWheelOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		loadEngine(e)
		type rec struct {
			at  float64
			ord int
		}
		var got []rec
		for ord, d := range delays {
			at := float64(d) / 5000 // spans all bands up to ~13 s
			ord := ord
			e.At(at, func() { got = append(got, rec{at, ord}) })
		}
		e.RunUntil(1e5)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].ord < got[i-1].ord {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	t.Run("refill-boundary", wheelRowRefill)
	t.Run("RunBefore-window-edge", wheelRowWindowEdge)
}

// wheelRowRefill keeps the cursor walking (a 0.7 s ticker, so laps are
// crossed rather than jumped) under events scattered to three horizons out,
// some scheduled up front and some from callbacks: every one of them starts
// in level 2, many past its reach, and must wait there for its lap and be
// cascaded down in time to fire in (at, seq) order.
func wheelRowRefill(t *testing.T) {
	t.Parallel()
	const horizon = wheelHorizon * wheelGranularity
	rng := rand.New(rand.NewSource(11))
	e := NewEngine()
	var m burstModel
	var fired []int
	var add func(at float64, depth int)
	add = func(at float64, depth int) {
		id := m.add(at)
		e.At(at, func() {
			fired = append(fired, id)
			if depth > 0 {
				// From a callback: just inside, on and beyond the horizon.
				add(e.Now()+horizon*(0.999+0.002*float64(rng.Intn(3))), depth-1)
			}
		})
	}
	for i := 0; i < 300; i++ {
		add(rng.Float64()*3*horizon, rng.Intn(2))
	}
	for at := 0.7; at < 5*horizon; at += 0.7 {
		add(at, 0)
	}
	if pastReach(e) == 0 {
		t.Fatal("test bug: nothing was placed beyond level 2's reach")
	}
	e.Run()
	checkOrder(t, fired, &m)
	if e.Stats().Cascades == 0 {
		t.Fatal("nothing was cascaded or filed back")
	}
}

// wheelRowWindowEdge puts an event exactly on an edge, one ulp below and one
// ulp above it, for an edge in every band: running up to one ulp below the
// edge must run the one below and nothing at or past the edge, leave the
// clock on that event, and leave the wheel cursor within a tick of the edge.
func wheelRowWindowEdge(t *testing.T) {
	t.Parallel()
	edges := []float64{
		3 * wheelGranularity / 8, // near-run
		0.001,                    // level 0
		0.25,                     // level 1
		60,                       // level 2
		500,                      // past level 2's reach
	}
	e := NewEngine()
	loadEngine(e)
	ballast := e.Pending()
	var m burstModel
	var fired []int
	for _, edge := range edges {
		for _, at := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1e9), edge} {
			id := m.add(at)
			e.At(at, func() { fired = append(fired, id) })
		}
	}
	want := m.expected()
	done := 0
	for _, edge := range edges {
		below := math.Nextafter(edge, math.Inf(-1))
		e.RunUntil(below)
		done++ // the one event below this edge
		if len(fired) != done || e.Now() != below {
			t.Fatalf("edge %g: %d events fired, clock %g; want %d and the event one ulp below",
				edge, len(fired), e.Now(), done)
		}
		if lead := e.wheel.cur - tickOf(edge); e.wheel.count > 0 && lead > 1 {
			t.Fatalf("edge %g: the cursor is %d ticks past the edge", edge, lead)
		}
		if got := e.Pending() - ballast; got != len(want)-done {
			t.Fatalf("edge %g: Pending = %d, want %d", edge, got, len(want)-done)
		}
		done += 3 // the two on the edge and the one above run with the next edge
	}
	e.RunUntil(1e3)
	checkOrder(t, fired, &m)
}

// TestWheelRunUntilBoundary checks RunUntil stops exactly at the deadline
// with wheel-resident events on both sides of it.
func TestWheelRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	ran := map[float64]bool{}
	for _, d := range []float64{0.01, 0.02, 0.03, 0.04} {
		d := d
		e.After(d, func() { ran[d] = true })
	}
	e.RunUntil(0.025)
	if !ran[0.01] || !ran[0.02] || ran[0.03] || ran[0.04] {
		t.Fatalf("RunUntil(0.025) ran wrong set: %v", ran)
	}
	if e.Now() != 0.025 {
		t.Fatalf("clock = %v, want 0.025", e.Now())
	}
	e.RunUntil(1)
	if !ran[0.03] || !ran[0.04] {
		t.Fatalf("resume did not drain the wheel: %v", ran)
	}
}

// TestWheelReactivatesAfterIdle pins the cursor-resync fix: after the
// wheel drains and simulated time coasts far past the level-1 horizon, new
// near-future events must still be bucketed (a stale cursor used to make
// every insert look beyond-horizon, silently degrading to pure-heap
// scheduling for the rest of the run).
func TestWheelReactivatesAfterIdle(t *testing.T) {
	e := NewEngine()
	for i := 0; i < nearMin; i++ {
		e.At(1e6+float64(i), func() {}) // far ballast fills the near-run to nearMin
	}
	e.After(0.01, func() {})
	e.RunUntil(10) // drain the wheel, coast ~10x past the horizon
	if e.wheel.count != 0 {
		t.Fatalf("wheel still holds %d events after drain", e.wheel.count)
	}
	fired := 0
	for i := 0; i < 10; i++ {
		e.After(0.001*float64(i+1), func() { fired++ })
	}
	if e.wheel.count == 0 {
		t.Fatal("near-future events bypassed the wheel: cursor was not resynced after idle")
	}
	e.RunUntil(11)
	if fired != 10 {
		t.Fatalf("fired %d, want 10", fired)
	}
}

// TestWheelPending counts live events across the near-run, the wheel, and
// stopped timers.
func TestWheelPending(t *testing.T) {
	e := NewEngine()
	loadEngine(e)
	base := e.Pending()
	tm := e.After(0.01, func() {})
	e.After(0.02, func() {})
	if got := e.Pending(); got != base+2 {
		t.Fatalf("Pending = %d, want %d", got, base+2)
	}
	tm.Stop()
	if got := e.Pending(); got != base+1 {
		t.Fatalf("Pending after Stop = %d, want %d", got, base+1)
	}
}

// TestWheelCursorStaysAtClock pins the bounded flush. Far timers head the
// near-run (placed there while the engine was still near-empty) over 1000
// wheel timers 100 µs apart. A probe that flushed all the way to the far
// head's tick would put the cursor 50 ms ahead, dump every wheel timer on the
// way into the near-run and leave all later inserts out of band until the
// clock caught up. The cursor must stop one tick past the first occupied
// slot, and the near-run hold the far timers plus one slot's worth.
func TestWheelCursorStaysAtClock(t *testing.T) {
	e := NewEngine()
	for i := 0; i < nearMin; i++ {
		e.At(0.050+float64(i)*0.001, func() {})
	}
	var maxLead int64
	maxNear := 0
	check := func() {
		if e.wheel.count > 0 {
			maxLead = max(maxLead, e.wheel.cur-tickOf(e.Now()))
		}
		maxNear = max(maxNear, len(e.near)-e.head)
	}
	for i := 1; i <= 1000; i++ {
		e.At(float64(i)*100e-6, check)
	}
	if e.wheel.count != 1000 {
		t.Fatalf("test bug: %d of the 1000 timers were bucketed", e.wheel.count)
	}
	e.Run()
	if maxLead > 1 {
		t.Errorf("cursor ran %d ticks ahead of the clock, want at most 1", maxLead)
	}
	if maxNear > nearMin+1 {
		t.Errorf("near-run grew to %d, want at most the %d far timers and one flushed slot", maxNear, nearMin)
	}
}

// TestStatsWANTimers drives the measured traffic shape (see wanTimers) and
// checks wheel.go's header as numbers: the near-run stays short, nothing
// waits past level 2's reach, the cursor stays at the clock, and a Reset
// engine re-running the schedule allocates nothing (every slot it touches
// kept its capacity).
func TestStatsWANTimers(t *testing.T) {
	e := NewEngine()
	left, far := 0, 0
	var maxLead int64
	fired := func() {
		if e.wheel.count > 0 {
			maxLead = max(maxLead, e.wheel.cur-tickOf(e.Now()))
		}
		if e.Processed()%1024 == 0 {
			far = max(far, pastReach(e))
		}
		if left--; left <= 0 {
			e.Halt()
		}
	}
	run := func(n int) { left = n; e.Run() }
	wanTimers(e, fired)
	run(300_000)
	st := e.Stats()
	if st.Advances == 0 || st.Placed[BandL0] == 0 || st.Placed[BandL1] == 0 || st.Placed[BandL2] == 0 {
		t.Fatalf("traffic missed a band: %+v", st)
	}
	if mean := float64(st.NearSum) / float64(st.Advances); mean > 11 {
		t.Errorf("mean near-run after an advance = %.1f entries, want <= 11 (%+v)", mean, st)
	}
	if far != 0 {
		t.Errorf("%d events waited past level 2's reach, want 0", far)
	}
	if maxLead > 1 {
		t.Errorf("cursor ran %d ticks ahead of the clock, want at most 1", maxLead)
	}
	if placed := st.Placed[BandNear] + st.Placed[BandL0] + st.Placed[BandL1] + st.Placed[BandL2]; placed < e.Processed() {
		t.Errorf("%d placements for %d events", placed, e.Processed())
	}

	e.Reset(nil)
	if e.Stats() != (Stats{}) {
		t.Errorf("Stats after Reset = %+v, want zeros", e.Stats())
	}
	wanTimers(e, fired)
	if avg := testing.AllocsPerRun(1, func() { run(100_000) }); avg != 0 {
		t.Errorf("%v allocs per 100 000 events on a reset engine, want 0", avg)
	}
}
