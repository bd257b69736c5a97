package exp

import (
	"fmt"
	"testing"

	"pcc/internal/netem"
	"pcc/internal/tcp"
)

// arenaTrial is one short mixed-shape trial, parameterized enough to drag
// the arena through every reuse transition: protocol category flips
// (rate↔window senders on one flow id), PCC config changes, queue-kind
// changes (cache key change), loss on/off (lazy RNG materialization), and
// flow-count growth and shrinkage.
func arenaTrial(ts *TrialScratch, i int) float64 {
	protos := []string{"pcc", "cubic", "newreno", "sabul", "pcc", "pacing"}
	queues := []string{"droptail", "fq", "codel", "fqcodel"}
	proto := protos[i%len(protos)]
	q := queues[i%len(queues)]
	p := PathSpec{
		RateMbps:  20,
		RTT:       0.020,
		Loss:      0.002 * float64(i%3),
		BufBytes:  (30 + 10*(i%3)) * netem.KB,
		QueueKind: q,
		Seed:      TrialSeed(1234, i),
	}
	r := ts.Runner(proto+"/"+q, p)
	f := r.AddFlow(FlowSpec{Proto: proto, FlowKB: 64, RevLoss: p.Loss})
	// A varying tail of extra flows exercises flow-pool growth/shrinkage.
	for k := 0; k < i%3; k++ {
		r.AddFlow(FlowSpec{Proto: protos[(i+k+1)%len(protos)], Bucket: 1})
	}
	r.Run(2)
	sum := f.GoodputMbps(2)
	for _, g := range r.Flows[1:] {
		sum += 1e3 * g.GoodputMbps(2)
	}
	return sum
}

// TestArenaMatchesFresh is the arena's core guarantee: a trial computed on
// a warm, repeatedly reused arena is bit-identical to the same trial
// computed on a freshly built runner. The trial mix deliberately thrashes
// every reuse path (sender category flips, queue-kind changes, flow counts
// going up and down, loss streams toggling on and off).
func TestArenaMatchesFresh(t *testing.T) {
	t.Parallel()
	const trials = 36
	fresh := make([]float64, trials)
	for i := range fresh {
		// A throwaway scratch per trial: every build is a cache miss.
		fresh[i] = arenaTrial(new(TrialScratch), i)
	}
	warm := new(TrialScratch)
	for pass := 0; pass < 2; pass++ { // second pass runs fully warm
		for i := 0; i < trials; i++ {
			if got := arenaTrial(warm, i); got != fresh[i] {
				t.Fatalf("pass %d trial %d: warm arena %v != fresh %v", pass, i, got, fresh[i])
			}
		}
	}
}

// TestArenaTopologyMatchesFresh covers the routed-topology respec paths
// (multi-hop link chains, per-link RNG reseeding, route teardown when the
// route shape changes under one key, mid-run Poisson flow spawning).
func TestArenaTopologyMatchesFresh(t *testing.T) {
	t.Parallel()
	trial := func(ts *TrialScratch, i int) float64 {
		protos := []string{"pcc", "newreno", "cubic"}
		_, long, cross := parkingLotTrial(ts, 2+i%2, protos[i%len(protos)], 6, TrialSeed(77, i))
		sum := long.WindowMbps(1, 6)
		for _, c := range cross {
			sum += c.WindowMbps(1, 6)
		}
		return sum
	}
	const trials = 12
	fresh := make([]float64, trials)
	for i := range fresh {
		fresh[i] = trial(new(TrialScratch), i)
	}
	warm := new(TrialScratch)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < trials; i++ {
			if got := trial(warm, i); got != fresh[i] {
				t.Fatalf("pass %d trial %d: warm arena %v != fresh %v", pass, i, got, fresh[i])
			}
		}
	}
}

// TestArenaRouteShapeChangeUnderOneKey pins the per-flow rebuild fallback:
// the same cache key alternates between two different route shapes for the
// same flow id, so every warm build must tear down and rebuild the routes —
// with results identical to fresh builds.
func TestArenaRouteShapeChangeUnderOneKey(t *testing.T) {
	t.Parallel()
	trial := func(ts *TrialScratch, i int) float64 {
		r := revPathRunner(ts, "shared", TrialSeed(5, i))
		var fwd, rev []netem.HopSpec
		if i%2 == 0 {
			fwd = []netem.HopSpec{netem.LinkHop("fat")}
			rev = []netem.HopSpec{netem.LinkHop("thin")}
		} else {
			fwd = []netem.HopSpec{netem.DelayHop(0.004), netem.LinkHop("thin")}
			rev = []netem.HopSpec{netem.LinkHop("fat")}
		}
		f := r.AddFlow(FlowSpec{Proto: "pcc", FwdRoute: fwd, RevRoute: rev})
		r.Run(4)
		return f.GoodputMbps(4)
	}
	warm := new(TrialScratch)
	for i := 0; i < 6; i++ {
		fresh := trial(new(TrialScratch), i)
		if got := trial(warm, i); got != fresh {
			t.Fatalf("trial %d: warm arena %v != fresh %v", i, got, fresh)
		}
	}
}

// TestArenaVariantFlipUnderOneKey pins the algorithm-recycling fallback: one
// runner key's flow 0 walks through protocol sequences that reuse the
// previous trial's algorithm object in place (cubic → cubic), flip variant
// within a sender category (cubic → newreno, newreno → pacing, sabul → pcp)
// and flip category (cubic → pcc → cubic) — each trial identical to the
// same trial on a fresh runner.
func TestArenaVariantFlipUnderOneKey(t *testing.T) {
	t.Parallel()
	protos := []string{"cubic", "pcc", "cubic", "cubic", "newreno", "pacing", "newreno", "reno",
		"sabul", "sabul", "pcp", "pcp", "sabul", "pcc", "pcc", "vegas", "cubic"}
	trial := func(ts *TrialScratch, i int) float64 {
		r := ts.Runner("shared", PathSpec{RateMbps: 20, RTT: 0.020, Loss: 0.002, BufBytes: 40 * netem.KB, Seed: TrialSeed(31, i)})
		f := r.AddFlow(FlowSpec{Proto: protos[i], FlowKB: 256})
		g := r.AddFlow(FlowSpec{Proto: protos[(i+1)%len(protos)], StartAt: 0.1})
		r.Run(3)
		return f.GoodputMbps(3) + 1e3*g.GoodputMbps(3)
	}
	warm := new(TrialScratch)
	for pass := 0; pass < 2; pass++ {
		for i := range protos {
			fresh := trial(new(TrialScratch), i)
			if got := trial(warm, i); got != fresh || got <= 0 {
				t.Fatalf("pass %d trial %d (%s after %s): warm arena %v != fresh %v", pass, i,
					protos[i], protos[(i+len(protos)-1)%len(protos)], got, fresh)
			}
		}
	}
}

// steadyAllocBudget is the allowed per-trial allocation count on a warm
// arena, from finding the cached runner to the end of the run: none. A cold
// build of the same trial allocates thousands of objects (engine, topology,
// routes, windows, 607-word RNG registers); a warm one — same key, same
// protocols — rewinds all of it in place, the algorithm objects and the
// flow-start event included.
const steadyAllocBudget = 0

// driverAllocBudget is the per-trial allowance for warm trials run through a
// driver's own trial function (widechain, linkflap, wan): what those
// allocate per trial — spec, route and key assembly, fault schedules —
// belongs to the driver, not to the arena.
const driverAllocBudget = 100

// checkSteadyStateAllocs measures warm trials of every protocol AddFlow
// accepts: per protocol a cold trial, a second to grow retained storage to
// steady state, then trials of add (find the runner, add the flow), a
// 2-second run and a goodput read, which must allocate nothing. Specs and
// routes are built once outside add, as a driver's sweep does; the runner key
// is assembled per trial, as drivers also do — the arena must not retain it,
// or the concatenation would move to the heap.
func checkSteadyStateAllocs(t *testing.T, add func(ts *TrialScratch, proto string) (*Runner, *Flow)) {
	for _, proto := range append([]string{"pcc", "sabul", "pcp", "pacing"}, tcp.Variants()...) {
		t.Run(proto, func(t *testing.T) {
			ts := new(TrialScratch)
			trial := func() {
				r, f := add(ts, proto)
				r.Run(2)
				if f.GoodputMbps(2) <= 0 {
					t.Fatal("trial produced no goodput")
				}
			}
			trial()
			trial()
			if avg := testing.AllocsPerRun(5, trial); avg > steadyAllocBudget {
				t.Errorf("warm trial allocates %.0f objects, budget %d", avg, steadyAllocBudget)
			}
		})
	}
}

// TestArenaSteadyStateAllocsDumbbell pins "a warm trial allocates nothing"
// for a dumbbell runner with wire loss.
func TestArenaSteadyStateAllocsDumbbell(t *testing.T) {
	path := PathSpec{RateMbps: 20, RTT: 0.020, Loss: 0.001, BufBytes: 50 * netem.KB, Seed: 9}
	checkSteadyStateAllocs(t, func(ts *TrialScratch, proto string) (*Runner, *Flow) {
		r := ts.Runner("steady/"+proto, path)
		return r, r.AddFlow(FlowSpec{Proto: proto, FlowKB: 64})
	})
}

// TestArenaSteadyStateAllocsTopology pins the same for a 3-hop
// routed-topology runner with a multi-hop route and an ACK delay hop.
func TestArenaSteadyStateAllocsTopology(t *testing.T) {
	chain := TopologySpec{Seed: 11}
	for i := 0; i < 3; i++ {
		chain.Links = append(chain.Links, LinkSpec{
			Name: hopName(i), From: fmt.Sprintf("n%d", i), To: fmt.Sprintf("n%d", i+1),
			RateMbps: 50, Delay: 0.002, BufBytes: 100 * netem.KB,
		})
	}
	fwd := []netem.HopSpec{netem.DelayHop(0.001), netem.LinkHop(hopName(0)), netem.LinkHop(hopName(1)), netem.LinkHop(hopName(2))}
	rev := []netem.HopSpec{netem.DelayHop(0.007)}
	checkSteadyStateAllocs(t, func(ts *TrialScratch, proto string) (*Runner, *Flow) {
		r := ts.TopologyRunner("steady/"+proto, chain)
		return r, r.AddFlow(FlowSpec{Proto: proto, FlowKB: 64, FwdRoute: fwd, RevRoute: rev})
	})
}

// TestArenaSteadyStateAllocsSharded pins the warm-trial budget on the shard
// axis: a sharded widechain trial reuses its shard group, per-shard engines
// and pools, and the mailbox merge scratch across trials, so what a
// steady-state trial allocates is the driver's spec/route assembly, not the
// sharding.
func TestArenaSteadyStateAllocsSharded(t *testing.T) {
	ts := new(TrialScratch)
	trial := func() {
		if g := RunWideChainTrial2(ts); g <= 0 {
			t.Fatal("trial produced no goodput")
		}
	}
	trial() // cold build (engines, workers, topology, flows)
	trial() // grow retained storage to steady state
	avg := testing.AllocsPerRun(5, trial)
	t.Logf("warm sharded widechain trial: %.0f allocs", avg)
	if avg > driverAllocBudget {
		t.Errorf("warm sharded trial allocates %.0f objects, budget %d", avg, driverAllocBudget)
	}
	if r := ts.runners[runnerKey{topology: true, key: "4/1/pcc/2"}]; r == nil || r.Group == nil {
		t.Fatal("trial did not run sharded; the budget above measured the wrong path")
	}
}

// RunWideChainTrial2 is the alloc test's small sharded trial: 4 hops, one
// cross flow per hop, 2 shards, 2 simulated seconds.
func RunWideChainTrial2(ts *TrialScratch) float64 {
	_, long, _ := wideChainTrial(ts, 4, 1, "pcc", 2.0, 13, 2)
	return long.WindowMbps(0.4, 2.0)
}

// TestSeriesMbpsIntoReuses pins the scratch-reusing series path: 0
// allocations once the destination has capacity, identical values to the
// allocating path.
func TestSeriesMbpsIntoReuses(t *testing.T) {
	t.Parallel()
	r := NewRunner(PathSpec{RateMbps: 20, RTT: 0.020, BufBytes: 50 * netem.KB, Seed: 3})
	f := r.AddFlow(FlowSpec{Proto: "pcc", Bucket: 0.5})
	r.Run(5)
	want := f.SeriesMbps()
	if len(want) == 0 {
		t.Fatal("no series")
	}
	buf := make([]float64, 0, len(want)+8)
	if avg := testing.AllocsPerRun(10, func() {
		buf = f.SeriesMbpsInto(buf)
	}); avg != 0 {
		t.Errorf("SeriesMbpsInto with warm scratch allocates %.1f objects, want 0", avg)
	}
	got := f.SeriesMbpsInto(buf)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
