package sim

import (
	"fmt"
	"math"
	"slices"
)

// ShardGroup runs several Engines in conservative lockstep so one simulation
// can use several cores. The partition (which component runs on which
// engine) is the caller's job — netem splits a topology by node — and the
// group only needs one physical fact about it: lookahead, a lower bound on
// the delay of every cross-shard interaction. With that bound the classic
// windowed conservative argument holds without null messages:
//
//	nextT = min over shards of the earliest pending event
//	window = [nextT, nextT+lookahead)
//
// Every event a shard executes inside the window happens at >= nextT, so any
// cross-shard message it emits arrives at >= nextT+lookahead — outside the
// window. Shards can therefore execute their window slices concurrently with
// no communication at all; messages posted during a round are parked in
// per-(src,dst) mailboxes and injected at the barrier. Each round advances
// global time by at least lookahead, bounding the number of rounds by
// duration/lookahead.
//
// Determinism survives sharding. Each engine keeps its own (at, seq) total
// order, mailbox entries carry (at, srcShard, srcSeq) — the source sequence
// number drawn at post time, so one source's messages stay in their causal
// order — and every destination sorts its merged inbox by exactly that key
// before injecting, drawing fresh destination sequence numbers in sorted
// order. The merged order is a pure function of the simulation, independent
// of goroutine scheduling, so a sharded run is reproducible at any shard
// count and — whenever no two causally independent cross-shard events share
// one exact float64 timestamp at one destination — byte-identical to the
// single-engine run (the experiment suite asserts this per experiment).
//
// A ShardGroup, like an Engine, belongs to one coordinating goroutine.
// Worker goroutines (one per shard, started lazily, parked on a channel
// between rounds) touch their engine only inside a round; the channel
// barrier orders those accesses against the coordinator's, so the usual
// single-threaded API (AddLink, AddFlow, Reset, Stats) remains safe between
// RunUntil calls.
type ShardGroup struct {
	engines   []*Engine
	lookahead float64

	// boxes[src*n+dst] is the src→dst mailbox: written only by shard src
	// during a round, drained only by the coordinator at the barrier.
	boxes [][]xmsg
	// merge is the coordinator's per-destination sort scratch.
	merge []xmsg

	started bool
	cmd     []chan shardCmd
	res     chan any
}

// xmsg is one parked cross-shard message.
type xmsg struct {
	at  Time
	seq uint64 // drawn from the source engine at post time
	src int32
	fn  func(any)
	arg any
}

type shardCmd struct {
	limit  Time
	strict bool
}

// NewShardGroup builds n engines coupled by the given lookahead (seconds).
// lookahead must be positive: a zero-delay cross-shard interaction would
// make every window empty. +Inf is legal and means the shards never
// interact (disconnected partitions run free to the deadline).
func NewShardGroup(n int, lookahead float64) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one engine")
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("sim: non-positive shard lookahead %v", lookahead))
	}
	g := &ShardGroup{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		boxes:     make([][]xmsg, n*n),
	}
	for i := range g.engines {
		g.engines[i] = NewEngine()
	}
	return g
}

// Len returns the number of shards.
func (g *ShardGroup) Len() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the group's conservative lookahead, seconds.
func (g *ShardGroup) Lookahead() float64 { return g.lookahead }

// Post parks fn(arg) for shard dst, to fire delay seconds after shard src's
// current time. It must be called from shard src's execution context (its
// worker goroutine during a round, or the coordinator between rounds) and
// the delay must honor the group lookahead — that bound is what lets rounds
// run without communication.
func (g *ShardGroup) Post(src, dst int, delay float64, fn func(any), arg any) {
	if delay < g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard post with delay %v below group lookahead %v", delay, g.lookahead))
	}
	e := g.engines[src]
	seq := e.nextSeq
	e.nextSeq++
	box := &g.boxes[src*len(g.engines)+dst]
	*box = append(*box, xmsg{at: e.now + delay, seq: seq, src: int32(src), fn: fn, arg: arg})
}

// RunUntil advances every shard to exactly deadline, executing all events
// with timestamps <= deadline in conservative windowed rounds. Like
// Engine.RunUntil it may be called repeatedly to resume.
func (g *ShardGroup) RunUntil(deadline Time) {
	if len(g.engines) == 1 {
		g.engines[0].RunUntil(deadline)
		return
	}
	g.start()
	for {
		nextT := math.Inf(1)
		for _, e := range g.engines {
			if at := e.NextEventAt(); at < nextT {
				nextT = at
			}
		}
		if nextT > deadline {
			break
		}
		limit := nextT + g.lookahead
		strict := true
		if !(limit <= deadline) {
			// The window reaches past the deadline: no message emitted in it
			// can arrive at <= deadline, so every shard can finish the call
			// with ordinary RunUntil semantics (inclusive, clock advanced).
			limit = deadline
			strict = false
		}
		g.round(limit, strict)
		g.deliver()
	}
	for _, e := range g.engines {
		if e.now < deadline {
			e.now = deadline
		}
	}
}

// round runs one window on every shard in parallel and waits for all of
// them. A panic on any shard is re-raised on the coordinator after the
// barrier, so no worker is left mid-window.
func (g *ShardGroup) round(limit Time, strict bool) {
	c := shardCmd{limit: limit, strict: strict}
	for _, ch := range g.cmd {
		ch <- c
	}
	var panicked any
	for range g.cmd {
		if p := <-g.res; p != nil && panicked == nil {
			panicked = p
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// deliver drains every mailbox into its destination engine, per destination
// in (at, srcShard, srcSeq) order — the group's deterministic merge rule.
// Injection draws fresh destination sequence numbers in that sorted order,
// so the destination's own (at, seq) total order embeds the merge.
func (g *ShardGroup) deliver() {
	n := len(g.engines)
	for d := 0; d < n; d++ {
		m := g.merge[:0]
		for s := 0; s < n; s++ {
			box := &g.boxes[s*n+d]
			m = append(m, *box...)
			// Entries keep stale arg pointers until overwritten, as the
			// engine's own recycled structures do.
			*box = (*box)[:0]
		}
		if len(m) == 0 {
			g.merge = m
			continue
		}
		slices.SortFunc(m, func(a, b xmsg) int {
			switch {
			case a.at != b.at:
				if a.at < b.at {
					return -1
				}
				return 1
			case a.src != b.src:
				return int(a.src) - int(b.src)
			case a.seq < b.seq:
				return -1
			default:
				return 1
			}
		})
		e := g.engines[d]
		for i := range m {
			e.scheduleSeq(m[i].at, e.DrawSeq(), nil, m[i].fn, m[i].arg)
		}
		g.merge = m[:0]
	}
}

// start spawns the parked per-shard workers on first use.
func (g *ShardGroup) start() {
	if g.started {
		return
	}
	g.started = true
	g.cmd = make([]chan shardCmd, len(g.engines))
	g.res = make(chan any, len(g.engines))
	for i := range g.engines {
		g.cmd[i] = make(chan shardCmd)
		go g.worker(g.engines[i], g.cmd[i])
	}
}

// worker takes its engine and channel as arguments: a Close right after
// start (a RunUntil with no round to run) clears g.cmd before a new worker
// goroutine may first read it.
func (g *ShardGroup) worker(e *Engine, cmd <-chan shardCmd) {
	for c := range cmd {
		func() {
			defer func() { g.res <- recover() }()
			if c.strict {
				e.RunBefore(c.limit)
			} else {
				e.RunUntil(c.limit)
			}
		}()
	}
}

// Close stops the worker goroutines. The group restarts them on the next
// multi-shard RunUntil, so Close is purely a resource release for callers
// that build many short-lived groups (tests); long-lived cached runners
// never need it.
func (g *ShardGroup) Close() {
	if !g.started {
		return
	}
	for _, ch := range g.cmd {
		close(ch)
	}
	g.started = false
	g.cmd = nil
}

// Reset rewinds every engine for a fresh simulation (see Engine.Reset),
// reclaiming per shard through reclaims[i] (nil entries skip reclamation).
// Mailboxes are empty between RunUntil calls by construction; entries left
// by an aborted round are reclaimed into their destination shard.
func (g *ShardGroup) Reset(reclaims []func(any)) {
	n := len(g.engines)
	for i, e := range g.engines {
		var rc func(any)
		if i < len(reclaims) {
			rc = reclaims[i]
		}
		e.Reset(rc)
	}
	for i := range g.boxes {
		box := g.boxes[i]
		if len(box) == 0 {
			continue
		}
		var rc func(any)
		if d := i % n; d < len(reclaims) {
			rc = reclaims[d]
		}
		for j := range box {
			if rc != nil && box[j].arg != nil {
				rc(box[j].arg)
			}
		}
		g.boxes[i] = box[:0]
	}
}
