package netem

import (
	"testing"

	"pcc/internal/sim"
)

// The delay-pipe invariant under test in this file: a link's propagation
// pipe is purely a scheduling structure. It must not touch packets (queue
// timestamps included), must not change which packets an AQM drops, and
// must shift every delivery by exactly the propagation delay relative to a
// zero-delay link fed identically.

type pipeRun struct {
	seqs  []int64   // delivered sequence numbers, in order
	times []float64 // delivery times
	enqs  []float64 // Enq timestamps observed at the sink
	drops int64
}

// runOverloadedLink feeds an open-loop 2x-overload schedule (with an initial
// burst so sojourn climbs) into a link built around q, and records what the
// sink sees.
func runOverloadedLink(q Queue, delay float64, flows int) pipeRun {
	eng := sim.NewEngine()
	pool := &PacketPool{}
	l := NewLink(eng, q, Mbps(10), delay, 0, nil)
	l.Pool = pool
	queueUsePool(q, pool)
	var out pipeRun
	l.Sink = func(p *Packet) {
		out.seqs = append(out.seqs, p.Seq)
		out.times = append(out.times, eng.Now())
		out.enqs = append(out.enqs, p.Enq)
		pool.Put(p)
	}
	interval := 1500 / Mbps(10) / 2 // 2x the drain rate
	seq := int64(0)
	send := func(flow int) {
		p := pool.Get()
		p.Flow, p.Seq, p.Size = flow, seq, 1500
		seq++
		l.Send(p)
	}
	// Initial burst to push sojourn past CoDel's target quickly.
	eng.At(0, func() {
		for i := 0; i < 40; i++ {
			send(i % flows)
		}
	})
	for i := 0; i < 1500; i++ {
		i := i
		eng.At(0.001+float64(i)*interval, func() { send(i % flows) })
	}
	eng.RunUntil(5)
	out.drops = q.Dropped()
	return out
}

// checkShifted asserts run d is run zero shifted by exactly delay: same
// survivors in the same order, every delivery exactly delay later, and the
// queue-entry timestamps (CoDel's sojourn basis) untouched by the pipe.
func checkShifted(t *testing.T, zero, d pipeRun, delay float64) {
	t.Helper()
	if d.drops == 0 {
		t.Fatal("overload produced no AQM/queue drops; test is not exercising the drop path")
	}
	if d.drops != zero.drops {
		t.Fatalf("drop count changed with delay: %d vs %d — the pipe leaked into queue behaviour", d.drops, zero.drops)
	}
	if len(d.seqs) != len(zero.seqs) {
		t.Fatalf("delivered %d packets with delay, %d without", len(d.seqs), len(zero.seqs))
	}
	for i := range d.seqs {
		if d.seqs[i] != zero.seqs[i] {
			t.Fatalf("survivor set diverged at %d: seq %d vs %d", i, d.seqs[i], zero.seqs[i])
		}
		if want := zero.times[i] + delay; d.times[i] != want {
			t.Fatalf("delivery %d at %v, want exactly %v (+%v)", i, d.times[i], want, delay)
		}
		if d.enqs[i] != zero.enqs[i] {
			t.Fatalf("packet %d Enq changed: %v vs %v — the pipe must not touch queue timestamps", i, d.enqs[i], zero.enqs[i])
		}
	}
}

// TestCoDelThroughDelayPipe drives CoDel's sojourn-based control law through
// the per-link delay pipe. The control law reads Packet.Enq at dequeue; a
// correct pipe changes nothing but the delivery instant.
func TestCoDelThroughDelayPipe(t *testing.T) {
	t.Parallel()
	const delay = 0.080
	zero := runOverloadedLink(NewCoDel(-1), 0, 1)
	d := runOverloadedLink(NewCoDel(-1), delay, 1)
	checkShifted(t, zero, d, delay)
}

// TestCoDelSojournThroughPipe additionally pins the sojourn arithmetic:
// every delivered packet left the queue after a sojourn of (delivery time −
// delay − Enq) ≥ 0, and once the control law is dropping, observed sojourns
// must have exceeded CoDel's target at some point.
func TestCoDelSojournThroughPipe(t *testing.T) {
	t.Parallel()
	const delay = 0.080
	q := NewCoDel(-1)
	d := runOverloadedLink(q, delay, 1)
	maxSojourn := 0.0
	for i := range d.seqs {
		sojournPlusTx := d.times[i] - delay - d.enqs[i]
		if sojournPlusTx < 0 {
			t.Fatalf("packet %d: negative queue residence %v — Enq was rewritten downstream", d.seqs[i], sojournPlusTx)
		}
		if sojournPlusTx > maxSojourn {
			maxSojourn = sojournPlusTx
		}
	}
	if maxSojourn <= codelTarget {
		t.Fatalf("max sojourn %v never exceeded CoDel target %v despite 2x overload", maxSojourn, codelTarget)
	}
}

// TestFQCoDelThroughDelayPipe runs the fq_codel composition (DRR scheduler,
// CoDel child per flow) through the delay pipe with three competing flows.
func TestFQCoDelThroughDelayPipe(t *testing.T) {
	t.Parallel()
	const delay = 0.050
	zero := runOverloadedLink(NewFQCoDel(64*KB), 0, 3)
	d := runOverloadedLink(NewFQCoDel(64*KB), delay, 3)
	checkShifted(t, zero, d, delay)
}

// TestFQDropTailThroughDelayPipe covers plain per-flow fair queueing (drop
// tail children) through the pipe, including enqueue-time drops.
func TestFQDropTailThroughDelayPipe(t *testing.T) {
	t.Parallel()
	const delay = 0.025
	zero := runOverloadedLink(NewFQ(8*KB), 0, 3)
	d := runOverloadedLink(NewFQ(8*KB), delay, 3)
	checkShifted(t, zero, d, delay)
}
