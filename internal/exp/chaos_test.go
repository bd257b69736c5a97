package exp

import (
	"fmt"
	"math"
	"testing"

	"pcc/internal/netem"
)

// TestChaosDeterminism extends the byte-identical-report guarantee to the
// fault-injection experiments: flap jitter draws ride the runner's seed
// derivation chain, so linkflap and partition reports must not depend on the
// worker count. This is the chaos slice of the CI determinism matrix:
// workers {1,2,8}.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		// The -short race job covers this axis with
		// TestChaosDeterminismRacePair; the CI determinism job runs the full
		// matrix un-shortened.
		t.Skip("full chaos worker matrix")
	}
	defer SetWorkers(0)
	cases := []struct {
		id   string
		seed int64
	}{
		{"linkflap", 42},
		{"linkflap", 7},
		{"partition", 42},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%d", tc.id, tc.seed), func(t *testing.T) {
			render := func(workers int) string {
				SetWorkers(workers)
				rep, err := Run(tc.id, 0.01, tc.seed)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return rep.String()
			}
			base := render(1)
			for _, workers := range []int{2, 8} {
				if got := render(workers); got != base {
					t.Errorf("report differs between workers=1 and workers=%d:\n--- base ---\n%s--- workers=%d ---\n%s",
						workers, base, workers, got)
				}
			}
		})
	}
}

// TestChaosDeterminismRacePair is the CI -race slice of the chaos axis: one
// faulted workers-1-vs-2 pair per experiment under the race detector, with
// concurrent trial workers.
func TestChaosDeterminismRacePair(t *testing.T) {
	defer SetWorkers(0)
	for _, id := range []string{"linkflap", "partition"} {
		render := func(workers int) string {
			SetWorkers(workers)
			rep, err := Run(id, 0.01, 42)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			return rep.String()
		}
		base := render(1)
		if got := render(2); got != base {
			t.Errorf("%s report differs between workers=1 and workers=2:\n--- workers=1 ---\n%s--- workers=2 ---\n%s", id, base, got)
		}
	}
}

// chaosCrashTrial runs one node-crash trial: a 2-hop chain n0→n1→n2 whose
// source host n0 crashes at t=2 and restarts at t=3 during a 5-second
// transfer. Returns the runner and the flow.
func chaosCrashTrial(ts *TrialScratch, seed int64) (*Runner, *Flow) {
	spec := TopologySpec{
		Seed: seed,
		Faults: &netem.FaultSchedule{Events: []netem.FaultEvent{
			{At: 2, Kind: netem.FaultNodeCrash, Node: "n0"},
			{At: 3, Kind: netem.FaultNodeRestart, Node: "n0"},
		}},
	}
	for i := 0; i < 2; i++ {
		spec.Links = append(spec.Links,
			LinkSpec{
				Name: fwdName(i), From: nodeName(i), To: nodeName(i + 1),
				RateMbps: 50, Delay: 0.005, BufBytes: 100 * netem.KB,
			},
			LinkSpec{
				Name: revName(i), From: nodeName(i + 1), To: nodeName(i),
				RateMbps: 500, Delay: 0.005, BufBytes: 100 * netem.KB,
			})
	}
	r := ts.TopologyRunner("crash", spec)
	f := r.AddFlow(FlowSpec{
		Proto:    "pcc",
		FwdRoute: []netem.HopSpec{netem.LinkHop(fwdName(0)), netem.LinkHop(fwdName(1))},
		RevRoute: []netem.HopSpec{netem.LinkHop(revName(1)), netem.LinkHop(revName(0))},
		Bucket:   0.1,
	})
	r.Run(5)
	return r, f
}

// TestNodeCrashFreezesAndResumes drives the node-fault path end to end: a
// crash must take the host's incident links down (destroying the in-flight
// train into the fault ledger), silence the flow for the outage, and a
// restart must bring the transfer back — with byte conservation holding on
// every link through all of it.
func TestNodeCrashFreezesAndResumes(t *testing.T) {
	t.Parallel()
	ts := new(TrialScratch)
	r, f := chaosCrashTrial(ts, 21)

	series := f.SeriesMbps()
	window := func(from, to float64) float64 {
		var sum float64
		for i := int(from / 0.1); i < int(to/0.1) && i < len(series); i++ {
			sum += series[i]
		}
		return sum
	}
	if pre := window(0.5, 2.0); pre <= 0 {
		t.Fatalf("no goodput before the crash (%.2f)", pre)
	}
	// The crash kills the source at t=2; anything still in flight arrives
	// within one path delay (~10 ms + queues), so [2.2, 3.0) must be silent.
	if mid := window(2.2, 3.0); mid != 0 {
		t.Errorf("goodput %.2f Mbps while the source host is down", mid)
	}
	if post := window(3.2, 5.0); post <= 0 {
		t.Errorf("transfer did not resume after the restart (%.2f)", post)
	}
	dropped := int64(0)
	for _, s := range r.Topo.Stats() {
		if !s.Conserved() {
			t.Errorf("link %s conservation broken across the crash: %+v", s.Name, s)
		}
		dropped += s.FaultDropped
	}
	if dropped == 0 {
		t.Error("crash destroyed no in-flight packets; the fault likely did not fire")
	}
	if len(r.FaultEvents()) != 2 {
		t.Errorf("FaultEvents() = %v, want the crash/restart pair", r.FaultEvents())
	}
}

// TestChaosArenaMatchesFresh pins fault injection on the trial-arena respec
// path: re-running a faulted trial on a warm arena (same topology signature,
// same fault targets) must be bit-identical to a fresh build, including the
// flap-jitter RNG draw that rides the seed derivation chain.
func TestChaosArenaMatchesFresh(t *testing.T) {
	t.Parallel()
	trial := func(ts *TrialScratch, i int) float64 {
		_, f := chaosCrashTrial(ts, TrialSeed(33, i))
		return f.WindowMbps(0.5, 5)
	}
	flapTrial := func(ts *TrialScratch, i int) float64 {
		proto := []string{"pcc", "cubic"}[i%2]
		_, long := linkFlapTrial(ts, proto, 10, TrialSeed(44, i))
		return long.WindowMbps(1, 10)
	}
	warm := new(TrialScratch)
	for i := 0; i < 4; i++ {
		if fresh, got := trial(new(TrialScratch), i), trial(warm, i); got != fresh {
			t.Fatalf("crash trial %d: warm arena %v != fresh %v", i, got, fresh)
		}
	}
	for i := 0; i < 4; i++ {
		if fresh, got := flapTrial(new(TrialScratch), i), flapTrial(warm, i); got != fresh {
			t.Fatalf("flap trial %d: warm arena %v != fresh %v", i, got, fresh)
		}
	}
}

// TestChaosArenaRespecDifferentTargets alternates the faulted link under one
// arena key: the warm path respecs the runner in place for a schedule with
// different targets, and results must stay fresh-identical.
func TestChaosArenaRespecDifferentTargets(t *testing.T) {
	t.Parallel()
	trial := func(ts *TrialScratch, i int) float64 {
		target := fwdName(i % 2)
		spec := TopologySpec{
			Seed: TrialSeed(55, i),
			Faults: &netem.FaultSchedule{Events: []netem.FaultEvent{
				{At: 1, Kind: netem.FaultLinkDown, Link: target},
				{At: 1.5, Kind: netem.FaultLinkUp, Link: target},
			}},
		}
		for k := 0; k < 2; k++ {
			spec.Links = append(spec.Links,
				LinkSpec{
					Name: fwdName(k), From: nodeName(k), To: nodeName(k + 1),
					RateMbps: 50, Delay: 0.005, BufBytes: 100 * netem.KB,
				},
				LinkSpec{
					Name: revName(k), From: nodeName(k + 1), To: nodeName(k),
					RateMbps: 500, Delay: 0.005, BufBytes: 100 * netem.KB,
				})
		}
		r := ts.TopologyRunner("alt-target", spec)
		f := r.AddFlow(FlowSpec{
			Proto:    "pcc",
			FwdRoute: []netem.HopSpec{netem.LinkHop(fwdName(0)), netem.LinkHop(fwdName(1))},
			RevRoute: []netem.HopSpec{netem.LinkHop(revName(1)), netem.LinkHop(revName(0))},
			Bucket:   0.5,
		})
		r.Run(3)
		return f.WindowMbps(0.5, 3)
	}
	warm := new(TrialScratch)
	for i := 0; i < 4; i++ {
		if fresh, got := trial(new(TrialScratch), i), trial(warm, i); got != fresh {
			t.Fatalf("trial %d: warm arena %v != fresh %v", i, got, fresh)
		}
	}
}

// TestChaosArenaSteadyStateAllocs holds faulted trials to the same warm-trial
// allocation budget as unfaulted ones: the materialized event list, the act
// table and the per-act engine posts all reuse arena storage.
func TestChaosArenaSteadyStateAllocs(t *testing.T) {
	ts := new(TrialScratch)
	trial := func() {
		_, f := chaosCrashTrial(ts, 21)
		if f.WindowMbps(0.5, 5) <= 0 {
			t.Fatal("trial produced no goodput")
		}
	}
	trial() // cold build
	trial() // grow retained storage to steady state
	avg := testing.AllocsPerRun(5, trial)
	t.Logf("warm faulted trial: %.0f allocs", avg)
	if avg > driverAllocBudget {
		t.Errorf("warm faulted trial allocates %.0f objects, budget %d", avg, driverAllocBudget)
	}
}

// TestDegradeSparesPacketOnTheWire pins when a FaultDegrade rate step takes
// effect: a step landing mid-serialization changes neither that packet's
// completion nor its delivery, and stretches every later one — "from the next
// transmission", which the link's setters must keep exact now that
// completions are processed lazily.
func TestDegradeSparesPacketOnTheWire(t *testing.T) {
	t.Parallel()
	// 12 Mbps serializes 1500 B in 1 ms; the step to 6 Mbps lands half-way
	// through the first packet.
	r := NewTopologyRunner(TopologySpec{
		Seed:  1,
		Links: []LinkSpec{{Name: "l", From: "a", To: "b", RateMbps: 12, Delay: 0.010, BufBytes: 100 * netem.KB}},
		Faults: &netem.FaultSchedule{Events: []netem.FaultEvent{
			{At: 0.0015, Kind: netem.FaultDegrade, Link: "l", RateBps: netem.Mbps(6), Delay: -1, Loss: -1},
		}},
	})
	var arrivals []float64
	r.Topo.AddFlow(0, []netem.HopSpec{netem.LinkHop("l")}, []netem.HopSpec{netem.DelayHop(0)}, r.Seeds,
		func(*netem.Packet) { arrivals = append(arrivals, r.Eng.Now()) }, nil)
	r.Eng.At(0.001, func() {
		for i := int64(0); i < 3; i++ {
			r.Topo.SendData(&netem.Packet{Flow: 0, Seq: i, Size: 1500})
		}
	})
	r.Run(1)
	want := []float64{0.002 + 0.010, 0.004 + 0.010, 0.006 + 0.010}
	if len(arrivals) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(arrivals), len(want))
	}
	for i := range want {
		if math.Abs(arrivals[i]-want[i]) > 1e-12 {
			t.Fatalf("packet %d arrived at %v, want %v (arrivals %v)", i, arrivals[i], want[i], arrivals)
		}
	}
	if got := r.Topo.LinkByName("l").Rate(); got != netem.Mbps(6) {
		t.Fatalf("link rate %v after the degrade, want %v", got, netem.Mbps(6))
	}
}
