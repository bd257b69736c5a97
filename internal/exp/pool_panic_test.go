package exp

import (
	"context"
	"errors"
	"testing"
)

// trialPanicOf runs a sweep at an explicit pool width and returns the
// *TrialPanicError it fails with, failing the test if the sweep succeeds or
// fails with anything else.
func trialPanicOf(t *testing.T, workers, n int, fn func(i int, ts *TrialScratch)) *TrialPanicError {
	t.Helper()
	err := runTrials(context.Background(), workers, n, fn)
	if err == nil {
		t.Fatal("trial panic was swallowed")
	}
	tpe, ok := err.(*TrialPanicError)
	if !ok {
		t.Fatalf("sweep error is %T (%v), want *TrialPanicError", err, err)
	}
	return tpe
}

// TestTrialPanicWrappedSequential checks the workers<=1 path: a panicking
// trial surfaces as a *TrialPanicError carrying the provenance the trial
// stamped on its scratch plus the trial index, and earlier trials complete.
func TestTrialPanicWrappedSequential(t *testing.T) {
	ran := 0
	boom := errors.New("queue invariant violated")
	tpe := trialPanicOf(t, 1, 5, func(i int, ts *TrialScratch) {
		ts.Stamp("linkflap", "pcc", TrialSeed(42, i))
		ran++
		if i == 2 {
			panic(boom)
		}
	})
	if ran != 3 {
		t.Errorf("ran %d trials before the panic, want 3", ran)
	}
	if tpe.Experiment != "linkflap" || tpe.Variant != "pcc" || tpe.Trial != 2 {
		t.Errorf("provenance = %+v, want experiment linkflap, variant pcc, trial 2", tpe)
	}
	if tpe.Seed != TrialSeed(42, 2) {
		t.Errorf("Seed = %d, want the failing trial's seed %d", tpe.Seed, TrialSeed(42, 2))
	}
	if !errors.Is(tpe, boom) {
		t.Error("errors.Is does not see through the wrapper to the panic value")
	}

	// A trial that never stamps, on an arena an earlier sweep stamped
	// linkflap and the pool recycled, reports the experiment RunCtx was
	// running, with no variant or seed: never the stale linkflap stamp.
	t.Run("unstamped-on-recycled-scratch", func(t *testing.T) {
		if err := runTrials(context.Background(), 1, 1, func(_ int, ts *TrialScratch) {
			ts.Stamp("linkflap", "pcc", 42)
		}); err != nil {
			t.Fatal(err)
		}
		drivers["unstamped"] = func(ctx context.Context, _ float64, _ int64) (*Report, error) {
			return nil, RunTrialsScratchCtx(ctx, 1, func(int, *TrialScratch) { panic("boom") })
		}
		defer delete(drivers, "unstamped")
		_, err := RunCtx(context.Background(), "unstamped", 0.1, 1)
		var tpe *TrialPanicError
		if !errors.As(err, &tpe) {
			t.Fatalf("RunCtx error is %T (%v), want *TrialPanicError", err, err)
		}
		if tpe.Experiment != "unstamped" || tpe.Variant != "" || tpe.Seed != 0 {
			t.Errorf("provenance = experiment %q, variant %q, seed %d; want unstamped, \"\", 0",
				tpe.Experiment, tpe.Variant, tpe.Seed)
		}
	})
}

// TestTrialPanicWrappedParallel checks the worker-pool path: the panic
// aborts the sweep and the first one returned is typed, without
// double-wrapping on its way through the worker recovery.
func TestTrialPanicWrappedParallel(t *testing.T) {
	tpe := trialPanicOf(t, 4, 64, func(i int, ts *TrialScratch) {
		ts.Stamp("partition", "cubic", TrialSeed(7, i))
		if i%3 == 1 {
			panic("non-error payload")
		}
	})
	if tpe.Experiment != "partition" || tpe.Variant != "cubic" {
		t.Errorf("provenance = %+v, want experiment partition, variant cubic", tpe)
	}
	if tpe.Trial%3 != 1 {
		t.Errorf("Trial = %d, not one of the panicking indices", tpe.Trial)
	}
	if tpe.Seed != TrialSeed(7, tpe.Trial) {
		t.Errorf("Seed = %d does not match trial %d", tpe.Seed, tpe.Trial)
	}
	if _, isTPE := tpe.Value.(*TrialPanicError); isTPE {
		t.Error("panic value was double-wrapped")
	}
	if tpe.Unwrap() != nil {
		t.Errorf("Unwrap() = %v for a non-error payload, want nil", tpe.Unwrap())
	}
	if got := tpe.Error(); got == "" {
		t.Error("empty Error() message")
	}
}

// TestTrialPanicNestedNotRewrapped: a trial that runs a sweep of its own
// through the panicking wrappers re-raises the inner sweep's typed failure;
// the outer pool must hand back that very value, inner provenance intact.
func TestTrialPanicNestedNotRewrapped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tpe := trialPanicOf(t, workers, 4, func(i int, ts *TrialScratch) {
			ts.Stamp("outer", "o", 1)
			RunTrialsScratch(1, func(j int, inner *TrialScratch) {
				inner.Stamp("inner", "i", 2)
				panic("inner boom")
			})
		})
		if tpe.Experiment != "inner" || tpe.Value != "inner boom" {
			t.Errorf("workers=%d: nested failure rewrapped: %+v", workers, tpe)
		}
	}
}
