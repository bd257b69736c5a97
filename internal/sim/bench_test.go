package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEventChurn measures the core schedule→pop→run loop: a chain of
// self-rescheduling events, the dominant pattern of every sender's pacing
// loop. With the event free list this runs allocation-free after warm-up.
func BenchmarkEventChurn(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Post(0.001, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Post(0.001, tick)
	e.Run()
}

// BenchmarkEventChurnDeep measures pop cost over many pending far timers
// (they sit in the overflow heap, off the pop path) — the first worst case of
// a sorted near-run, had they been let into it.
func BenchmarkEventChurnDeep(b *testing.B) {
	e := NewEngine()
	const pending = 4096
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Post(0.001, tick)
		} else {
			e.Halt() // leave the ballast queued
		}
	}
	for i := 0; i < pending; i++ {
		e.At(float64(i)*1e9+1e6, func() {}) // far-future ballast
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Post(0.001, tick)
	e.Run()
}

// BenchmarkWheelChurn measures the timing-wheel path under a dense timer
// population: 4096 live timers rescheduling at spread-out delays across the
// level-0 and level-1 bands, the regime of an incast's worth of senders'
// pacing/monitor/tail timers. A pure heap pays O(log n) per event here;
// the wheel buckets each insertion in O(1) and the near-run stays short.
func BenchmarkWheelChurn(b *testing.B) {
	e := NewEngine()
	const timers = 4096
	n := 0
	var tick func(i int) func()
	tick = func(i int) func() {
		var fn func()
		// Deterministic per-timer delay spanning ~160 µs to ~52 ms.
		delay := 0.000160 * float64(1+i%326)
		fn = func() {
			n++
			if n < b.N {
				e.Post(delay, fn)
			} else {
				e.Halt()
			}
		}
		return fn
	}
	for i := 0; i < timers; i++ {
		e.Post(0.001, tick(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// wanTimers arms the timer population a routed WAN trial keeps alive (measured
// on exp.RunWANTrial, 120 nodes / 200 flows): 500 self-re-arming timers with
// periods spread over 28 µs-10 ms — pipe heads, link wakes, pacing loops —
// and 200 at 1-3 s, the per-flow tail timers. (It was 850 while every link
// also kept a serializer event going; the trial runs 0.59 times the events
// without them.) fired runs on every expiry, before the re-arm.
func wanTimers(e *Engine, fired func()) {
	arm := func(period float64) {
		var fn func()
		fn = func() {
			fired()
			e.Post(period, fn)
		}
		e.Post(period, fn)
	}
	for i := 0; i < 500; i++ {
		arm(28e-6 * float64(1+i%357))
	}
	for i := 0; i < 200; i++ {
		arm(1 + 0.01*float64(i))
	}
}

// BenchmarkWANTimers measures the scheduler on the traffic it actually
// serves: a few hundred persistent timers re-armed millions of times.
func BenchmarkWANTimers(b *testing.B) {
	e := NewEngine()
	n := 0
	wanTimers(e, func() {
		if n++; n >= b.N {
			e.Halt()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkTickCrowd is the second worst case of a sorted near-run: 4096
// events inside one 8 µs tick, scheduled in random order.
func BenchmarkTickCrowd(b *testing.B) {
	const crowd = 4096
	rng := rand.New(rand.NewSource(1))
	var off [crowd]float64
	for i := range off {
		off[i] = 0.001 + rng.Float64()*wheelGranularity
	}
	e := NewEngine()
	noop := func() {}
	round := func(k int) {
		for _, d := range off[:k] {
			e.Post(d, noop)
		}
		e.Run()
	}
	round(crowd) // size the near-run, spill and slot once
	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= crowd {
		round(min(n, crowd))
	}
}

// BenchmarkSameInstant measures same-timestamp trains: 64 events share every
// instant (a tick re-posting itself beside 63 no-ops, posted in one callback),
// the shape of an incast's synchronized packets and of the bench module's
// sim.burst_ns probe. Each one enters the near-run behind its equals.
func BenchmarkSameInstant(b *testing.B) {
	e := NewEngine()
	left := b.N
	noop := func() {}
	var tick func()
	tick = func() {
		if left -= 64; left <= 0 {
			e.Halt()
		}
		for i := 0; i < 63; i++ {
			e.Post(0.001, noop)
		}
		e.Post(0.001, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Post(0.001, tick)
	e.Run()
}

// BenchmarkPostArg measures the closure-free packet-delivery path used by
// netem's links: a long-lived func(any) plus a pointer payload.
func BenchmarkPostArg(b *testing.B) {
	e := NewEngine()
	type payload struct{ n int }
	p := &payload{}
	var deliver func(any)
	deliver = func(a any) {
		pl := a.(*payload)
		pl.n++
		if pl.n < b.N {
			e.PostArg(0.001, deliver, pl)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.PostArg(0.001, deliver, p)
	e.Run()
}

// BenchmarkTimerRearm measures the reusable-Timer path used by
// retransmission and pacing timers (one live Timer rescheduled forever).
func BenchmarkTimerRearm(b *testing.B) {
	e := NewEngine()
	var tm Timer
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Rearm(&tm, 0.001, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Rearm(&tm, 0.001, tick)
	e.Run()
}
