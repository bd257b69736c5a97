package sim

import (
	"math"
	"testing"
)

// The shard property test model-checks the conservative horizon protocol:
// random 2–4 shard workloads of self-replicating events, where every event
// derives its children (count, local/cross, delays, destination shard)
// purely from a 64-bit token via a splitmix mix. That makes the workload a
// pure function of the root tokens — no shared counters, no reads of
// cross-goroutine state — so the sharded run is race-free under -race and
// the single-engine reference run (same shards, but cross-shard hops become
// plain PostArg calls on the one engine) produces the exact event set the
// sharded run must reproduce: per virtual shard, the same (at, token)
// execution sequence in the same order.

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type shardTrace struct {
	at    Time
	token uint64
}

// shardModel drives one workload against either a ShardGroup or a single
// reference engine; logs[i] records shard i's execution order.
type shardModel struct {
	n         int
	lookahead float64
	maxDepth  int
	logs      [][]shardTrace

	group *ShardGroup // nil for the single-engine reference
	ref   *Engine
}

type shardEvt struct {
	m     *shardModel
	shard int
	depth int
	token uint64
}

func (m *shardModel) engine(shard int) *Engine {
	if m.group != nil {
		return m.group.Engine(shard)
	}
	return m.ref
}

func (m *shardModel) run(ev *shardEvt) {
	e := m.engine(ev.shard)
	m.logs[ev.shard] = append(m.logs[ev.shard], shardTrace{at: e.Now(), token: ev.token})
	if ev.depth >= m.maxDepth {
		return
	}
	children := 1
	if ev.token>>62 == 3 { // p = 1/4
		children = 2
	}
	for c := 0; c < children; c++ {
		tok := mix64(ev.token + uint64(c) + 1)
		child := &shardEvt{m: m, depth: ev.depth + 1, token: tok}
		// Bit 0 picks local vs cross; the rest feed delay and destination.
		frac := float64(tok>>11) / (1 << 53) // uniform [0,1)
		if tok&1 == 0 || m.n == 1 {
			child.shard = ev.shard
			delay := m.lookahead * (0.1 + 1.9*frac)
			e.PostArg(delay, shardEvtFn, child)
			continue
		}
		dst := int(tok>>1) % (m.n - 1)
		if dst >= ev.shard {
			dst++
		}
		child.shard = dst
		delay := m.lookahead * (1 + 2*frac)
		if m.group != nil {
			m.group.Post(ev.shard, dst, delay, shardEvtFn, child)
		} else {
			m.ref.PostArg(delay, shardEvtFn, child)
		}
	}
}

func shardEvtFn(a any) {
	ev := a.(*shardEvt)
	ev.m.run(ev)
}

func (m *shardModel) seed(roots int, baseToken uint64) {
	for r := 0; r < roots; r++ {
		shard := r % m.n
		ev := &shardEvt{m: m, shard: shard, token: mix64(baseToken + uint64(r))}
		// Staggered root offsets so shards start out of phase.
		m.engine(shard).At(m.lookahead*float64(r+1)*0.37, func() { m.run(ev) })
	}
}

func TestShardGroupMatchesSingleEngine(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		s := mix64(seed * 0x5851f42d4c957f2d)
		n := 2 + int(s%3)                       // 2..4 shards
		lookahead := 1e-3 * float64(1+(s>>8)%5) // 1..5 ms
		roots := 3 + int((s>>16)%4)

		build := func(group *ShardGroup, ref *Engine) *shardModel {
			m := &shardModel{
				n: n, lookahead: lookahead, maxDepth: 12,
				logs:  make([][]shardTrace, n),
				group: group, ref: ref,
			}
			m.seed(roots, s)
			return m
		}

		g := NewShardGroup(n, lookahead)
		sharded := build(g, nil)
		g.RunUntil(1.0)
		g.Close()

		single := build(nil, NewEngine())
		single.ref.RunUntil(1.0)

		for i := 0; i < n; i++ {
			a, b := sharded.logs[i], single.logs[i]
			if len(a) != len(b) {
				t.Fatalf("seed %d shard %d: %d events sharded vs %d single-engine", seed, i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("seed %d shard %d event %d: sharded (at=%.9g tok=%x) vs single (at=%.9g tok=%x)",
						seed, i, j, a[j].at, a[j].token, b[j].at, b[j].token)
				}
			}
			if len(a) == 0 {
				t.Fatalf("seed %d shard %d: empty trace — workload degenerate", seed, i)
			}
		}

		// All clocks land exactly on the deadline.
		for i := 0; i < n; i++ {
			if got := g.Engine(i).Now(); got != 1.0 {
				t.Fatalf("seed %d shard %d clock = %v, want 1.0", seed, i, got)
			}
		}
	}
}

// A resumed group (two RunUntil calls) must match one straight run: the
// window protocol may not depend on where the caller slices the timeline.
func TestShardGroupResume(t *testing.T) {
	s := mix64(42)
	n := 3
	lookahead := 2e-3

	runTo := func(cuts []Time) [][]shardTrace {
		g := NewShardGroup(n, lookahead)
		defer g.Close()
		m := &shardModel{
			n: n, lookahead: lookahead, maxDepth: 10,
			logs:  make([][]shardTrace, n),
			group: g,
		}
		m.seed(4, s)
		for _, c := range cuts {
			g.RunUntil(c)
		}
		return m.logs
	}

	whole := runTo([]Time{0.5})
	split := runTo([]Time{0.13, 0.31, 0.5})
	for i := 0; i < n; i++ {
		if len(whole[i]) != len(split[i]) {
			t.Fatalf("shard %d: %d events in one run vs %d resumed", i, len(whole[i]), len(split[i]))
		}
		for j := range whole[i] {
			if whole[i][j] != split[i][j] {
				t.Fatalf("shard %d event %d differs across resume slicing", i, j)
			}
		}
	}

	t.Run("precedes-between-rounds", func(t *testing.T) {
		// A shard's round is RunBefore(limit), which leaves the clock on the
		// last event it executed, not on limit. Work stamped with DrawSeq
		// between the two — a netem link's inbox arrival — has therefore not
		// happened for a getter at the barrier, though a delivery event in its
		// place would have run in that round; a RunUntil, which advances the
		// clock to its deadline, settles it.
		g := NewShardGroup(2, 1e-3)
		defer g.Close()
		e := g.Engine(0)
		e.PostAt(0.2e-3, func() {})
		s := e.DrawSeq()
		e.RunBefore(1e-3)
		if e.Now() != 0.2e-3 || !e.Precedes(0.2e-3, s) || e.Precedes(0.5e-3, s) {
			t.Fatalf("after a round to 1 ms: clock %v, stamp at 0.5 ms happened %v; want 0.2 ms and false", e.Now(), e.Precedes(0.5e-3, s))
		}
		g.RunUntil(1e-3)
		if e.Now() != 1e-3 || !e.Precedes(0.5e-3, s) {
			t.Fatalf("after RunUntil(1 ms): clock %v, stamp at 0.5 ms happened %v; want 1 ms and true", e.Now(), e.Precedes(0.5e-3, s))
		}
	})
}

func TestShardGroupPostBelowLookaheadPanics(t *testing.T) {
	g := NewShardGroup(2, 1e-3)
	defer func() {
		if recover() == nil {
			t.Fatal("Post below lookahead did not panic")
		}
	}()
	g.Post(0, 1, 0.5e-3, func(any) {}, nil)
}

func TestShardGroupInfiniteLookahead(t *testing.T) {
	// Disconnected shards: +Inf lookahead runs each shard free to the
	// deadline in one round.
	g := NewShardGroup(2, math.Inf(1))
	defer g.Close()
	var fired [2]int
	for i := 0; i < 2; i++ {
		i := i
		e := g.Engine(i)
		var tick func()
		tick = func() {
			fired[i]++
			if fired[i] < 100 {
				e.At(e.Now()+0.01, tick)
			}
		}
		e.At(0.005, tick)
	}
	g.RunUntil(2.0)
	for i := 0; i < 2; i++ {
		if fired[i] != 100 {
			t.Fatalf("shard %d fired %d timers, want 100", i, fired[i])
		}
		if g.Engine(i).Now() != 2.0 {
			t.Fatalf("shard %d clock %v, want 2.0", i, g.Engine(i).Now())
		}
	}
}
