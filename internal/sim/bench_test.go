package sim

import "testing"

// BenchmarkEventChurn measures the core schedule→pop→run loop: a chain of
// self-rescheduling events, the dominant pattern of every sender's pacing
// loop. With the event free list and the direct 4-ary heap this runs
// allocation-free after warm-up.
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

// BenchmarkEventChurnDeep measures pop cost with a deep heap (many pending
// events), the regime of large incast scenarios.
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
// pacing/monitor/tail timers. The pure heap pays O(log n) per event here;
// the wheel buckets each insertion in O(1) and the residual heap stays
// shallow.
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
