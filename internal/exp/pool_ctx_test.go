package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitGoroutinesSettle polls until the process goroutine count drops back to
// at most want, failing the test if it never does. It is the counted
// goleak-style check: pool workers and watchdog goroutines must all be gone
// once a sweep returns (modulo runtime/test goroutines that existed before).
func waitGoroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler's books
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d still running, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunTrialsCtxCancelledMidSweep checks the core cancellation contract:
// cancelling the context stops scheduling at the next trial boundary,
// in-flight trials complete, the pool returns a typed *SweepCancelledError
// whose Completed count matches the trials that actually ran, and the
// completed slots hold valid partial results.
func TestRunTrialsCtxCancelledMidSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1000
		release := make(chan struct{})
		cancelAfter := 5
		out := make([]int, n)
		err := runTrials(ctx, workers, n, func(i int, ts *TrialScratch) {
			if i == cancelAfter {
				cancel()
				close(release)
			} else if i > cancelAfter {
				// Trials scheduled concurrently with the cancelling trial may
				// still run; block them briefly so at least one boundary check
				// happens after cancel() on every worker.
				select {
				case <-release:
				case <-time.After(time.Second):
				}
			}
			out[i] = i + 1
		})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: sweep of %d trials survived cancellation", workers, n)
		}
		var sc *SweepCancelledError
		if !errors.As(err, &sc) {
			t.Fatalf("workers=%d: err = %T (%v), want *SweepCancelledError", workers, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: errors.Is(err, context.Canceled) = false", workers)
		}
		if sc.Total != n || sc.Completed <= 0 || sc.Completed >= n {
			t.Errorf("workers=%d: completed %d/%d, want a strict partial sweep", workers, sc.Completed, sc.Total)
		}
		filled := 0
		for i, v := range out {
			if v != 0 {
				if v != i+1 {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i+1)
				}
				filled++
			}
		}
		if filled < sc.Completed {
			t.Errorf("workers=%d: %d filled slots < %d reported completed", workers, filled, sc.Completed)
		}
	}
}

// TestRunTrialsCtxCompletesDespiteLateCancel: a context cancelled only after
// every trial has been claimed must not turn a fully completed sweep into an
// error.
func TestRunTrialsCtxCompletesDespiteLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, err := RunPointsScratchCtx(ctx, 8, func(i int, _ *TrialScratch) int { return i * i })
	if err != nil {
		t.Fatalf("uncancelled sweep returned %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunTrialsCtxPreCancelled: an already-dead context runs zero trials.
func TestRunTrialsCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunTrialsScratchCtx(ctx, 10, func(int, *TrialScratch) { ran = true })
	var sc *SweepCancelledError
	if !errors.As(err, &sc) || sc.Completed != 0 {
		t.Fatalf("err = %v, want *SweepCancelledError with 0 completed", err)
	}
	if ran {
		t.Error("a trial ran under a pre-cancelled context")
	}
}

// TestRunTrialsCtxNoGoroutineLeak: a cancelled parallel sweep must wind all
// its worker goroutines down before returning.
func TestRunTrialsCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = runTrials(ctx, 8, 64, func(i int, _ *TrialScratch) {
			if i == 3 {
				cancel()
			}
		})
		cancel()
	}
	waitGoroutinesSettle(t, before)
}

// TestTrialWatchdogTimeout checks the per-trial watchdog on both the
// sequential and pooled paths: a hung trial converts into a typed
// *TrialTimeoutError carrying the provenance the trial stamped, the sweep
// aborts, and the worker pool itself survives (a later sweep on the same
// process completes normally).
func TestTrialWatchdogTimeout(t *testing.T) {
	ctx := WithConfig(context.Background(), Config{TrialTimeout: 50 * time.Millisecond})
	for _, workers := range []int{1, 4} {
		release := make(chan struct{})
		err := runTrials(ctx, workers, 8,
			func(i int, ts *TrialScratch) {
				ts.Stamp("hangexp", "pcc", TrialSeed(99, i))
				if i == 2 {
					<-release // a hang the trial will never escape on its own
				}
			})
		var tt *TrialTimeoutError
		if err == nil || !errors.As(err, &tt) {
			close(release)
			t.Fatalf("workers=%d: err = %v, want *TrialTimeoutError", workers, err)
		}
		if tt.Experiment != "hangexp" || tt.Variant != "pcc" || tt.Trial != 2 {
			t.Errorf("workers=%d: provenance = %+v, want hangexp/pcc trial 2", workers, tt)
		}
		if tt.Seed != TrialSeed(99, 2) {
			t.Errorf("workers=%d: Seed = %d, want %d", workers, tt.Seed, TrialSeed(99, 2))
		}
		if tt.Timeout != 50*time.Millisecond {
			t.Errorf("workers=%d: Timeout = %v, want 50ms", workers, tt.Timeout)
		}
		// Unwedge the abandoned goroutine so the test process stays clean.
		close(release)

		// The pool must still be fully usable after a timeout abort.
		out := pointsWith(workers, 4, func(i int) int { return i })
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: pool broken after timeout: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestTrialTimeoutKnobResolution pins how a context resolves the watchdog
// deadline: none without a Config, the innermost WithConfig wins over an
// outer one, a zero inner Config disables it, and a context derived from a
// configured one keeps its parent's setting.
func TestTrialTimeoutKnobResolution(t *testing.T) {
	bg := context.Background()
	outer := WithConfig(bg, Config{TrialTimeout: 3 * time.Second})
	derived, cancel := context.WithCancel(outer)
	defer cancel()
	for _, row := range []struct {
		name string
		ctx  context.Context
		want time.Duration
	}{
		{"unset", bg, 0},
		{"outer", outer, 3 * time.Second},
		{"inner-wins", WithConfig(outer, Config{TrialTimeout: time.Second}), time.Second},
		{"zero-disables", WithConfig(outer, Config{}), 0},
		{"derived-keeps", derived, 3 * time.Second},
	} {
		if got := configOf(row.ctx).TrialTimeout; got != row.want {
			t.Errorf("%s: TrialTimeout = %v, want %v", row.name, got, row.want)
		}
	}
}

// TestConfigPerCall runs calls under different Configs at once; each must
// see only its own. The watchdog row holds a sweep whose 30 ms watchdog
// fires on a hung trial while a second, unconfigured sweep's 100 ms trial
// completes: a process-wide deadline would have killed the second. The wan
// row runs a pinned and a default wan call at once, and each report's
// title must show its own node and flow counts.
func TestConfigPerCall(t *testing.T) {
	t.Run("watchdog", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release) // unwedge the abandoned trial goroutine
		hung := make(chan struct{})
		timed := make(chan error, 1)
		go func() {
			ctx := WithConfig(context.Background(), Config{TrialTimeout: 30 * time.Millisecond})
			timed <- RunTrialsScratchCtx(ctx, 1, func(int, *TrialScratch) {
				close(hung)
				<-release
			})
		}()
		<-hung // the watchdogged sweep is in flight before the other starts
		err := RunTrialsScratchCtx(context.Background(), 1, func(int, *TrialScratch) {
			time.Sleep(100 * time.Millisecond)
		})
		if err != nil {
			t.Errorf("unconfigured sweep: %v, want nil (no watchdog of its own)", err)
		}
		var tt *TrialTimeoutError
		if err := <-timed; !errors.As(err, &tt) || tt.Timeout != 30*time.Millisecond {
			t.Errorf("watchdogged sweep: %v, want *TrialTimeoutError after 30ms", err)
		}
	})
	t.Run("wan", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two concurrent wan runs")
		}
		const scale, seed = 0.01, 42
		dur := scaledDur(25, 5, scale)
		// Both contexts exist before either call starts, so a setting kept
		// anywhere but in the context would reach the default call too.
		calls := []struct {
			ctx          context.Context
			nodes, flows int // the targets RunWAN should derive
		}{
			{context.Background(), 5, 50}, // scale-derived; 5 nodes round up to 48
			{WithConfig(context.Background(), Config{Nodes: 120, Flows: 40}), 120, 40},
		}
		reps := make([]*Report, len(calls))
		errs := make([]error, len(calls))
		var wg sync.WaitGroup
		for i, c := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = RunCtx(c.ctx, "wan", scale, seed)
			}()
		}
		wg.Wait()
		titles := map[string]bool{}
		for i, c := range calls {
			if errs[i] != nil {
				t.Fatalf("call %d: %v", i, errs[i])
			}
			sh := NewWANShape(c.nodes, c.flows, 1, dur, seed)
			want := fmt.Sprintf("(%d nodes, %d links, %d flows,", sh.NumNodes(), sh.graph.NumLinks(), len(sh.flows))
			if !strings.Contains(reps[i].Title, want) {
				t.Errorf("call %d: title %q, want it to contain %q", i, reps[i].Title, want)
			}
			titles[reps[i].Title] = true
		}
		if len(titles) != len(calls) {
			t.Errorf("titles %v: the two calls' shapes should differ", titles)
		}
	})
}

// TestTrialPanicCapturesStack: the panic wrapper must carry the panicking
// goroutine's stack — including the frame that panicked — on both the
// sequential and pooled paths, so a quarantined panic is debuggable from a
// server's error ledger long after the goroutine is gone.
func TestTrialPanicCapturesStack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tpe := trialPanicOf(t, workers, 4, func(i int, ts *TrialScratch) {
			ts.Stamp("stackexp", "x", TrialSeed(1, i))
			if i%2 == 1 {
				explodeForStackTest()
			}
		})
		if len(tpe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if !bytes.Contains(tpe.Stack, []byte("explodeForStackTest")) {
			t.Errorf("workers=%d: stack does not name the panicking frame:\n%s", workers, tpe.Stack)
		}
	}
}

// explodeForStackTest panics from a named function so the stack assertion
// has an unambiguous frame to look for.
func explodeForStackTest() {
	panic("boom for stack capture")
}

// TestRunCtxCancelsEveryExperiment holds cancellation uniform across the
// registry: under a pre-cancelled context every registered experiment hands
// its ctx to the pool, which runs zero trials and comes back with a typed
// cancellation. A driver that sweeps under context.Background() instead runs
// to completion and fails this; so does one that burns the time budget
// before reaching its sweep. A live context still produces the full report.
func TestRunCtxCancelsEveryExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	for _, id := range IDs() {
		rep, err := RunCtx(ctx, id, 0.01, 42)
		var sc *SweepCancelledError
		if rep != nil || !errors.As(err, &sc) {
			t.Errorf("%s: cancelled RunCtx = (%v, %v), want (nil, *SweepCancelledError)", id, rep, err)
			continue
		}
		if sc.Completed != 0 {
			t.Errorf("%s: %d trials ran under a pre-cancelled context", id, sc.Completed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: errors.Is(err, context.Canceled) = false for %v", id, err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled registry pass took %v, want well under a second", d)
	}
	rep, err := RunCtx(context.Background(), "theory", 0.2, 42)
	if err != nil || rep == nil || len(rep.Rows) == 0 {
		t.Fatalf("live RunCtx(theory) = (%v, %v), want a populated report", rep, err)
	}
	if !strings.Contains(rep.String(), "Theorem") {
		t.Error("theory report lost its title")
	}
}
