package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcc/internal/netem"
)

// waitGoroutinesSettle polls until the process goroutine count drops back to
// at most want, failing the test if it does not within the given time. It is
// the counted goleak-style check: pool workers must all be gone once a sweep
// returns, and so must every trial it ran (modulo runtime/test goroutines
// that existed before).
func waitGoroutinesSettle(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
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

// spinTrial livelocks a simulation until the wall clock passes until (never,
// for the zero time): one event re-posts itself at zero delay, so simulated
// time never reaches the run's end, and only the engine's stop poll ends a
// trial that spins forever.
func spinTrial(ts *TrialScratch, until time.Time) {
	r := ts.Runner("spin", PathSpec{RateMbps: 10, RTT: 0.01, BufBytes: 64 * netem.KB})
	var spin func()
	spin = func() {
		if until.IsZero() || time.Now().Before(until) {
			r.Eng.Post(0, spin)
		}
	}
	r.Eng.Post(0, spin)
	r.Run(1)
}

// holdPool keeps one runner busy until the returned release is called, so
// the pool's shelf of warm arenas stays in place between the sweeps a test
// runs: the last runner out hands the shelf to a sync.Pool, which may drop
// it or hand it to another CPU.
func holdPool() (release func()) {
	hold, started, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		RunTrialsScratch(1, func(int, *TrialScratch) {
			close(started)
			<-hold
		})
	}()
	<-started
	return func() {
		close(hold)
		<-done
	}
}

// TestRunTrialsCtxCancelledMidSweep checks the core cancellation contract:
// cancelling the context stops scheduling at the next trial boundary,
// trials already running outside any engine (these block on a channel, which
// no engine polls) complete, the pool returns a typed *SweepCancelledError
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
	waitGoroutinesSettle(t, before, 5*time.Second)
}

// TestTrialWatchdogTimeout checks the per-trial watchdog on both the
// sequential and pooled paths: a trial whose engine livelocks is stopped by
// its own engine's poll and converts into a typed *TrialTimeoutError carrying
// the provenance the trial stamped, and the sweep aborts. Nothing of the
// trial outlives the sweep: the goroutine count is back at its baseline
// within a second, the timed-out arena is back on the shelf, the next sweep
// at that width runs on it, and the pool is fully usable.
func TestTrialWatchdogTimeout(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	defer holdPool()()
	ctx := WithConfig(context.Background(), Config{TrialTimeout: 50 * time.Millisecond})
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var hung *TrialScratch
		err := runTrials(ctx, workers, 8,
			func(i int, ts *TrialScratch) {
				ts.Stamp("hangexp", "pcc", TrialSeed(99, i))
				if i == 2 {
					hung = ts
					spinTrial(ts, time.Time{}) // a hang the trial will never escape on its own
				}
			})
		var tt *TrialTimeoutError
		if err == nil || !errors.As(err, &tt) {
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
		waitGoroutinesSettle(t, before, time.Second)

		trialPool.mu.Lock()
		shelved := slices.Contains(trialPool.idle, hung)
		trialPool.mu.Unlock()
		if !shelved {
			t.Errorf("workers=%d: the timed-out trial's arena is not on the shelf", workers)
		}
		// The shelf hands out its newest arenas first, and every runner of a
		// sweep this long gets trials, so the timed-out arena serves one.
		var reused atomic.Bool
		if err := runTrials(context.Background(), workers, 32, func(_ int, ts *TrialScratch) {
			if ts == hung {
				reused.Store(true)
			}
			time.Sleep(time.Millisecond)
		}); err != nil {
			t.Fatal(err)
		}
		if !reused.Load() {
			t.Errorf("workers=%d: the next sweep did not run on the timed-out arena", workers)
		}

		// The pool must still be fully usable after a timeout abort.
		out := pointsWith(workers, 4, func(i int) int { return i })
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: pool broken after timeout: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestWatchdogWarmTrialAllocs: arming the watchdog costs a warm trial
// nothing. The deadline is read by the engines' poll, so there is no timer,
// channel or goroutine per trial, and a 65-trial sweep allocates what a
// 1-trial sweep does.
func TestWatchdogWarmTrialAllocs(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	defer holdPool()()
	ctx := WithConfig(context.Background(), Config{TrialTimeout: time.Minute})
	path := PathSpec{RateMbps: 20, RTT: 0.020, BufBytes: 50 * netem.KB, Seed: 9}
	var events uint64
	trial := func(_ int, ts *TrialScratch) {
		r := ts.Runner("watchdog-allocs", path)
		r.AddFlow(FlowSpec{Proto: "pcc"})
		r.Run(1)
		events = r.Eng.Processed()
	}
	sweep := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := runTrials(ctx, 1, n, trial); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := sweep(1), sweep(65)
	if events < 4*1024 {
		t.Fatalf("a trial ran %d events, too few to poll the deadline more than a few times", events)
	}
	if per := (many - one) / 64; per != 0 {
		t.Errorf("a warm trial with the watchdog armed allocates %.2f objects (1-trial sweep %.0f, 65-trial %.0f), want 0",
			per, one, many)
	}
}

// TestCancelStopsLivelockedTrial: cancelling a sweep's context stops a trial
// whose engine livelocks, on the sequential and pooled paths. The stopped
// trial does not count as completed and its RunPointsScratchCtx slot stays
// zero, while the trials that finished keep theirs.
func TestCancelStopsLivelockedTrial(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		out, err := RunPointsScratchCtx(ctx, 4, func(i int, ts *TrialScratch) int {
			if i == 1 {
				spinTrial(ts, time.Time{})
			}
			return i + 1
		})
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		var sc *SweepCancelledError
		if !errors.As(err, &sc) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want *SweepCancelledError wrapping context.Canceled", workers, err)
		}
		if elapsed > time.Second {
			t.Errorf("workers=%d: cancelled sweep returned after %v", workers, elapsed)
		}
		if out[1] != 0 {
			t.Errorf("workers=%d: the stopped trial's slot = %d, want 0", workers, out[1])
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
		if filled != sc.Completed || sc.Total != 4 {
			t.Errorf("workers=%d: %d filled slots, completed %d/%d", workers, filled, sc.Completed, sc.Total)
		}
	}
}

// TestFlapSetupBounded installs a flap whose 1 µs cycle runs to Until 10⁶ s —
// 2·10¹² acts if the run went to its end. Set-up must cost the same as for
// Until 1 s, cold and warm, since a flap is one self-re-arming event, not a
// list unfolded in set-up. A sweep whose context is cancelled right after
// set-up must then return *SweepCancelledError at the engine's first stop
// poll, before any event of the flap runs.
func TestFlapSetupBounded(t *testing.T) {
	spec := func(until float64) TopologySpec {
		return TopologySpec{
			Seed: 1,
			Links: []LinkSpec{{Name: fwdName(0), From: nodeName(0), To: nodeName(1),
				RateMbps: 10, Delay: 0.001, BufBytes: 64 * netem.KB}},
			Faults: &netem.FaultSchedule{Flaps: []netem.FlapSpec{{
				Link: fwdName(0), DownDur: 0.5e-6, UpDur: 0.5e-6, Jitter: 0.3, Until: until,
			}}},
		}
	}
	short, long := spec(1), spec(1e6)
	cold := func(s TopologySpec) float64 {
		return testing.AllocsPerRun(5, func() { new(TrialScratch).TopologyRunner("flap", s) })
	}
	warmTS := new(TrialScratch)
	warm := func(s TopologySpec) float64 {
		return testing.AllocsPerRun(5, func() { warmTS.TopologyRunner("flap", s) })
	}
	if a, b := cold(short), cold(long); a != b {
		t.Errorf("cold set-up allocates %v for Until 1 s but %v for Until 10⁶ s", a, b)
	}
	if a, b := warm(short), warm(long); a != b || b != 0 {
		t.Errorf("warm set-up allocates %v for Until 1 s and %v for Until 10⁶ s, want 0 for both", a, b)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran uint64
	start := time.Now()
	err := RunTrialsScratchCtx(ctx, 1, func(_ int, ts *TrialScratch) {
		r := ts.TopologyRunner("flap", long)
		cancel()
		r.Run(1e6)
		ran = r.Eng.Processed()
	})
	var sc *SweepCancelledError
	if !errors.As(err, &sc) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want *SweepCancelledError wrapping context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("the cancelled trial ran %d events, want 0: the first stop poll comes before any event", ran)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled flap sweep returned after %v", elapsed)
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
// stops a livelocked trial while a second, unconfigured sweep's 100 ms
// simulation completes: a process-wide deadline would have stopped the
// second. The wan
// row runs a pinned and a default wan call at once, and each report's
// title must show its own node and flow counts.
func TestConfigPerCall(t *testing.T) {
	t.Run("watchdog", func(t *testing.T) {
		hung := make(chan struct{})
		timed := make(chan error, 1)
		go func() {
			ctx := WithConfig(context.Background(), Config{TrialTimeout: 30 * time.Millisecond})
			timed <- RunTrialsScratchCtx(ctx, 1, func(_ int, ts *TrialScratch) {
				close(hung)
				spinTrial(ts, time.Time{})
			})
		}()
		<-hung // the watchdogged sweep is in flight before the other starts
		err := RunTrialsScratchCtx(context.Background(), 1, func(_ int, ts *TrialScratch) {
			spinTrial(ts, time.Now().Add(100*time.Millisecond))
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
// The mid-run row cancels a wan run whose trials are already simulating:
// their engines stop, and the call returns a typed cancellation, not a
// report, well inside the run's own length.
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

	t.Run("mid-run", func(t *testing.T) {
		if testing.Short() {
			t.Skip("a scale-0.1 wan run")
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var cancelledAt atomic.Int64
		timer := time.AfterFunc(100*time.Millisecond, func() {
			cancelledAt.Store(time.Now().UnixNano())
			cancel()
		})
		defer timer.Stop()
		rep, err := RunCtx(ctx, "wan", 0.1, 42)
		var sc *SweepCancelledError
		if rep != nil || !errors.As(err, &sc) {
			t.Fatalf("wan cancelled mid-run = (%v, %v), want (nil, *SweepCancelledError)", rep != nil, err)
		}
		if d := time.Duration(time.Now().UnixNano() - cancelledAt.Load()); d > 500*time.Millisecond {
			t.Errorf("wan returned %v after its cancel, want under 500ms", d)
		}
	})
}
