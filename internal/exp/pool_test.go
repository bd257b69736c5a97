package exp

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestPoolSharedAcrossSweeps runs k sweeps at once under one budget of two
// runners. Callers always run their own trials and helpers join only while
// the budget has room, so the trials of the k sweeps never run more than
// max(2, k) at once, and never more than 2 when k <= 2; every result still
// equals the one-worker run. A sweep that registers while another sweep's
// helper is mid-trial overlaps that trial, so two held one-trial sweeps
// fill the budget until every sweep under test has started: the mark then
// counts only what the budget admits. The nested row runs a 4-trial sweep
// inside every trial and must complete, since a nested caller never waits
// for the budget.
func TestPoolSharedAcrossSweeps(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	const n = 6
	leafWant := pointsWith(1, 4*n, stressTrial)
	for _, row := range []struct {
		name   string
		k      int
		nested bool
	}{
		{"k1", 1, false},
		{"k2", 2, false},
		{"k4", 4, false},
		{"k2-nested", 2, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var running, high atomic.Int64
			leaf := func(i int) float64 {
				c := running.Add(1)
				defer running.Add(-1)
				for h := high.Load(); c > h && !high.CompareAndSwap(h, c); h = high.Load() {
				}
				time.Sleep(time.Millisecond) // long enough for every admitted runner to overlap
				return stressTrial(i)
			}
			trial := func(i int) float64 {
				if !row.nested {
					return leaf(i)
				}
				sum := 0.0
				for _, v := range RunPointsScratch(4, func(j int, _ *TrialScratch) float64 { return leaf(4*i + j) }) {
					sum += v
				}
				return sum
			}
			want := make([]float64, n)
			for i := range want {
				if !row.nested {
					want[i] = leafWant[i]
					continue
				}
				for j := 0; j < 4; j++ {
					want[i] += leafWant[4*i+j]
				}
			}

			release := make(chan struct{})
			var holders, started sync.WaitGroup
			for h := 0; h < 2; h++ {
				holders.Add(1)
				go func() {
					defer holders.Done()
					RunTrialsScratch(1, func(int, *TrialScratch) { <-release })
				}()
			}
			// Wait for both holders to be counted: nothing else runs then.
			for {
				trialPool.mu.Lock()
				busy := trialPool.running.Load()
				trialPool.mu.Unlock()
				if busy >= 2 {
					break
				}
				time.Sleep(time.Millisecond)
			}

			got := make([][]float64, row.k)
			var sweeps sync.WaitGroup
			for s := 0; s < row.k; s++ {
				sweeps.Add(1)
				started.Add(1)
				go func() {
					defer sweeps.Done()
					var once sync.Once
					got[s] = RunPointsScratch(n, func(i int, _ *TrialScratch) float64 {
						once.Do(started.Done)
						return trial(i)
					})
				}()
			}
			started.Wait()
			close(release)
			sweeps.Wait()
			holders.Wait()

			for s, out := range got {
				for i, v := range out {
					if v != want[i] {
						t.Fatalf("sweep %d trial %d: got %v, want %v (the one-worker run)", s, i, v, want[i])
					}
				}
			}
			limit := int64(max(2, row.k))
			if row.k <= 2 {
				limit = 2
			}
			if h := high.Load(); h > limit {
				t.Errorf("%d trials ran at once across %d sweeps, want <= %d", h, row.k, limit)
			}
		})
	}
}
