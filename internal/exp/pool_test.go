package exp

import (
	"context"
	"sync"
	"testing"

	"pcc/internal/netem"
)

// pointsWith runs fn over [0, n) at an explicit pool width and returns the
// results in index order; a trial failure is re-raised, as RunPointsScratch
// does at the default width.
func pointsWith[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if err := runTrials(context.Background(), workers, n, func(i int, _ *TrialScratch) { out[i] = fn(i) }); err != nil {
		panic(err)
	}
	return out
}

func TestRunPointsOrder(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 7, 32} {
		out := pointsWith(workers, 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := pointsWith(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0 returned %d results", len(got))
	}
}

func TestRunTrialsPanicPropagates(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("panic in a trial must reach the caller, as in sequential execution")
		}
	}()
	RunTrialsScratch(16, func(i int, _ *TrialScratch) {
		if i == 11 {
			panic("boom")
		}
	})
}

func TestWorkersResolution(t *testing.T) {
	// Not parallel: mutates the global override.
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("SetWorkers(3) → Workers() = %d", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("unset override must fall back to GOMAXPROCS, got %d", got)
	}
}

// stressTrial runs one tiny self-contained simulation. Mixing protocols
// exercises rate-based and window-based senders, both queue families, and
// the per-runner packet pool.
func stressTrial(i int) float64 {
	protos := []string{"pcc", "cubic", "newreno", "sabul"}
	queues := []string{"droptail", "fq"}
	r := NewRunner(PathSpec{
		RateMbps:  20,
		RTT:       0.020,
		Loss:      0.001 * float64(i%3),
		BufBytes:  50 * netem.KB,
		QueueKind: queues[i%len(queues)],
		Seed:      TrialSeed(99, i),
	})
	f := r.AddFlow(FlowSpec{Proto: protos[i%len(protos)], FlowKB: 64})
	r.Run(2)
	return f.GoodputMbps(2)
}

// TestPoolStressTinyTrials pushes many tiny trials through a wide pool and
// checks the results bit-match a sequential run. Under -race (the CI race
// job runs this package in short mode) it doubles as the shared-state
// detector for the engine, netem, and the packet free lists.
func TestPoolStressTinyTrials(t *testing.T) {
	t.Parallel()
	trials := 96
	if testing.Short() {
		trials = 32
	}
	want := pointsWith(1, trials, stressTrial)
	for _, workers := range []int{4, 16} {
		got := pointsWith(workers, trials, stressTrial)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: got %v, want %v (parallel run diverged)", workers, i, got[i], want[i])
			}
		}
	}
}

// TestPoolConcurrentUse runs several pools at once — the situation of
// parallel t.Parallel tests each fanning out trials — to verify the pool
// itself keeps no shared state beyond the worker-count knob.
func TestPoolConcurrentUse(t *testing.T) {
	t.Parallel()
	const users = 4
	var wg sync.WaitGroup
	errs := make(chan string, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := pointsWith(4, 12, stressTrial)
			for i, v := range out {
				if v != stressTrial(i) {
					errs <- "concurrent pool user got divergent result"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
