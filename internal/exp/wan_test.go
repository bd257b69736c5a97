package exp

import (
	"strings"
	"testing"

	"pcc/internal/netem"
)

// TestWANDeterminism extends the byte-identical-report guarantee to the
// generated-topology experiment: graph generation, shortest-path routing
// and the backbone flap schedule are all deterministic, so the wan report
// must not depend on the worker count. Workers {1,2,8}, the CI determinism
// matrix, at small scale.
func TestWANDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full wan worker matrix")
	}
	defer SetWorkers(0)
	render := func(workers int) string {
		SetWorkers(workers)
		rep, err := Run("wan", 0.01, 42)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep.String()
	}
	base := render(1)
	if !strings.Contains(base, "0 violated") {
		t.Fatalf("base wan report shows conservation violations:\n%s", base)
	}
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != base {
			t.Errorf("report differs between workers=1 and workers=%d:\n--- base ---\n%s--- workers=%d ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestWANConservation is the acceptance run for the generated WAN: at
// least 100 generated nodes carrying at least 1000 concurrent flows, the
// x0 backbone flap active mid-run, and the byte ledger of every generated
// link balancing when the simulation stops.
func TestWANConservation(t *testing.T) {
	const dur = 5.0
	sh := NewWANShape(100, 1000, 1, dur, 42)
	if n := sh.NumNodes(); n < 100 {
		t.Fatalf("generated %d nodes, want >= 100", n)
	}
	if len(sh.flows) < 1000 {
		t.Fatalf("routed %d flows, want >= 1000", len(sh.flows))
	}
	for k := range sh.flows {
		if s := sh.flows[k].startAt; s >= 0.3*dur {
			t.Fatalf("flow %d starts at %v, after the first outage — flows must all be live under the fault schedule", k, s)
		}
	}
	ts := new(TrialScratch)
	r, goodput := wanTrial(ts, sh, "pcc", dur, 42)
	for _, s := range r.Topo.Stats() {
		if !s.Conserved() {
			t.Errorf("link %s conservation broken: %+v", s.Name, s)
		}
	}
	downs, dropped := 0, int64(0)
	for _, ev := range r.FaultEvents() {
		if ev.Kind == netem.FaultLinkDown {
			downs++
		}
	}
	for _, s := range r.Topo.Stats() {
		dropped += s.FaultDropped
	}
	if downs == 0 {
		t.Error("flap schedule produced no link-down events")
	}
	if dropped == 0 {
		t.Error("outages destroyed no in-flight packets; x0 likely carried no traffic")
	}
	active, sum := 0, 0.0
	for _, g := range goodput {
		if g > 0 {
			active++
		}
		sum += g
	}
	if active < len(goodput)*9/10 {
		t.Errorf("only %d/%d flows moved bytes", active, len(goodput))
	}
	if sum <= 0 {
		t.Error("zero aggregate goodput")
	}
}

// TestWANArenaMatchesFresh pins the generated-topology respec path: a wan
// trial re-run on a warm arena (identical link slice and flap schedule
// shared from one WANShape) must be bit-identical to a fresh build.
func TestWANArenaMatchesFresh(t *testing.T) {
	t.Parallel()
	sh := NewWANShape(20, 12, 1, 3.0, 9)
	trial := func(ts *TrialScratch, i int) float64 {
		return RunWANTrial(ts, sh, 3.0, TrialSeed(9, i))
	}
	warm := new(TrialScratch)
	for i := 0; i < 4; i++ {
		if fresh, got := trial(new(TrialScratch), i), trial(warm, i); got != fresh {
			t.Fatalf("trial %d: warm arena %v != fresh %v", i, got, fresh)
		}
	}
}

// TestWANArenaSteadyStateAllocs holds warm generated-topology trials to the
// arena budget: respeccing a 100+-link generated graph in place (per-link
// rewind, shared flap schedule) must not scale allocations
// with topology size.
func TestWANArenaSteadyStateAllocs(t *testing.T) {
	sh := NewWANShape(20, 8, 1, 2.0, 13)
	ts := new(TrialScratch)
	trial := func() {
		if RunWANTrial(ts, sh, 2.0, 13) <= 0 {
			t.Fatal("trial produced no goodput")
		}
	}
	trial() // cold build
	trial() // grow retained storage to steady state
	avg := testing.AllocsPerRun(5, trial)
	t.Logf("warm wan trial (%d links, %d flows): %.0f allocs", sh.graph.NumLinks(), len(sh.flows), avg)
	if avg > driverAllocBudget {
		t.Errorf("warm wan trial allocates %.0f objects, budget %d", avg, driverAllocBudget)
	}
}
