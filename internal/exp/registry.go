package exp

import (
	"context"
	"fmt"
	"sort"

	"pcc/internal/theory"
)

// DriverCtx runs one experiment at the given scale and seed. The driver
// threads ctx into its sweep so a cancelled context stops it, running trials
// included (their engines poll it between events), returning a
// *SweepCancelledError (or the typed error of a failing trial) instead of
// panicking.
type DriverCtx func(ctx context.Context, scale float64, seed int64) (*Report, error)

// drivers maps experiment IDs to their drivers. Registration happens at
// init time (or, for tests and extensions, via RegisterCtx before any
// concurrent Run/RunCtx calls); the map is read-only afterwards, so the
// serving layer may dispatch from many goroutines without locking.
var drivers = map[string]DriverCtx{
	"fig5":      RunFig5,
	"fig6":      RunFig6,
	"fig7":      RunFig7,
	"fig8":      RunFig8,
	"fig9":      RunFig9,
	"fig10":     RunFig10,
	"fig11":     RunFig11,
	"fig12":     RunFig12,
	"fig13":     RunFig13,
	"fig14":     RunFig14,
	"fig15":     RunFig15,
	"fig16":     RunFig16,
	"fig17":     RunFig17,
	"table1":    RunTable1,
	"loss50":    RunLossResilient,
	"theory":    RunTheory,
	"ablation":  RunAblation,
	"linkflap":  RunLinkFlap,
	"parklot":   RunParkingLot,
	"partition": RunPartition,
	"revpath":   RunRevPath,
	"wan":       RunWAN,
	"mixmtu":    RunMixMTU,
	"widechain": RunWideChain,
}

// RegisterCtx adds a driver under a new ID. It is intended for tests and
// extensions, panics on a duplicate ID, and must complete before any
// concurrent Run/RunCtx calls (the registry is lock-free read-only at
// serving time).
func RegisterCtx(id string, d DriverCtx) {
	if _, dup := drivers[id]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment id %q", id))
	}
	drivers[id] = d
}

// Run dispatches an experiment by ID. Trial panics and watchdog timeouts
// inside the driver's sweeps come back as typed errors (*TrialPanicError,
// *TrialTimeoutError) rather than panics.
func Run(id string, scale float64, seed int64) (*Report, error) {
	return RunCtx(context.Background(), id, scale, seed)
}

// RunCtx is Run with cancellation: once ctx is cancelled the driver's sweep
// starts no further trial, its running trials stop within 1024 engine
// events, and it returns a *SweepCancelledError. A trial failure from
// a driver that does not stamp its trials is attributed to id.
func RunCtx(ctx context.Context, id string, scale float64, seed int64) (*Report, error) {
	d, ok := drivers[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	rep, err := d(ctx, scale, seed)
	switch e := err.(type) {
	case *TrialPanicError:
		if e.Experiment == "" {
			e.Experiment = id
		}
	case *TrialTimeoutError:
		if e.Experiment == "" {
			e.Experiment = id
		}
	}
	return rep, err
}

// IDs lists all experiment identifiers, sorted.
func IDs() []string {
	ids := make([]string, 0, len(drivers))
	for id := range drivers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunTheory validates Theorems 1 and 2 numerically (§2.2): for several n it
// locates the symmetric equilibrium, checks C < Σx̂ < 20C/19, runs the
// concurrent dynamics from a wildly unfair start, and verifies every sender
// lands inside (x̂(1−ε)², x̂(1+ε)²). Context-aware: a cancelled ctx stops
// the sweep at the next sender-count point.
func RunTheory(ctx context.Context, scale float64, seed int64) (*Report, error) {
	rep := &Report{
		ID:     "theory",
		Title:  "Theorems 1 & 2: equilibrium existence, fairness bound, dynamics convergence",
		Header: []string{"n", "x_hat", "sum/C", "band_ok", "final_min", "final_max", "converged"},
	}
	const C = 100.0
	const eps = 0.01
	senderCounts := []int{2, 3, 4, 8, 16}
	rows, err := RunPointsScratchCtx(ctx, len(senderCounts), func(i int, _ *TrialScratch) []string {
		n := senderCounts[i]
		g := theory.NewGame(C, n)
		xh := g.Equilibrium(n, eps)
		sumRatio := xh * float64(n) / C
		bandOK := sumRatio > 1 && sumRatio < 20.0/19.0
		// Unfair start: sender 0 hogs, the rest trickle.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = C / float64(n) / 10
		}
		x0[0] = C * 0.9
		// Convergence is slowest for small n: most steps move all senders
		// in lockstep (sum oscillating around C) and differentiation only
		// happens inside the loss band, so give the dynamics ample steps.
		final := g.Dynamics(x0, eps, 60000)
		mn, mx := final[0], final[0]
		for _, v := range final {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		lo, hi := xh*(1-eps)*(1-eps), xh*(1+eps)*(1+eps)
		converged := mn >= lo && mx <= hi
		return []string{
			fmt.Sprintf("%d", n), f3(xh), f3(sumRatio),
			fmt.Sprintf("%v", bandOK), f3(mn), f3(mx), fmt.Sprintf("%v", converged),
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	rep.Notes = append(rep.Notes, "band_ok: C < Σx̂ < 20C/19 (Theorem 1); converged: all senders in (x̂(1−ε)², x̂(1+ε)²) (Theorem 2)")
	return rep, nil
}
