package exp

import "testing"

// TestParallelMatchesSequential is the tentpole guarantee of the parallel
// experiment engine: for a fixed root seed, a driver's report is
// byte-identical no matter how many workers compute its trials, because
// every trial owns its engine and RNG streams and results are reassembled
// in trial-index order. Three experiments (trial-heavy incast, the AQM×
// protocol power matrix, and the pure-math theory check) each run
// sequentially and at two parallel widths; TestPoolStressTinyTrials covers
// the FQ/heavy-loss/mixed-protocol combinations at the harness level.
//
// This test deliberately does not call t.Parallel(): it toggles the
// process-wide worker override, and Go never overlaps a serial test with
// other tests in the same binary.
func TestParallelMatchesSequential(t *testing.T) {
	defer SetWorkers(0)
	cases := []struct {
		id    string
		scale float64
		seed  int64
	}{
		{"theory", 0.01, 42},
		{"fig10", 0.01, 42},
		{"fig17", 0.01, 1},
		// Routed multi-link topologies: parking-lot (mid-run Poisson flow
		// spawning over multi-hop routes) and the congested-reverse-path
		// pair must also be byte-identical at any worker count.
		{"parklot", 0.01, 42},
		{"revpath", 0.01, 42},
		// Mixed packet sizes (512/1400/9000 B on one path): the per-flow
		// size knob and the byte-granular link ledger must stay
		// byte-identical at any worker count too.
		{"mixmtu", 0.01, 42},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			render := func(workers int) string {
				SetWorkers(workers)
				rep, err := Run(tc.id, tc.scale, tc.seed)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return rep.String()
			}
			sequential := render(1)
			for _, workers := range []int{2, 8} {
				if got := render(workers); got != sequential {
					t.Errorf("report differs between 1 and %d workers:\n--- sequential ---\n%s--- %d workers ---\n%s",
						workers, sequential, workers, got)
				}
			}
		})
	}
}

// TestTrialSeedStable pins the (rootSeed, trial) → seed mapping: recorded
// experiment outputs stay comparable across releases only if this never
// changes.
func TestTrialSeedStable(t *testing.T) {
	t.Parallel()
	// Golden values: changing the SplitMix64 derivation invalidates every
	// recorded experiment output, so the mapping is pinned, not just checked
	// for self-consistency.
	if got := TrialSeed(42, 0); got != -4767286540954276203 {
		t.Fatalf("TrialSeed(42, 0) = %d, want -4767286540954276203 (derivation changed!)", got)
	}
	if got := TrialSeed(1, 7); got != -8797857673641491083 {
		t.Fatalf("TrialSeed(1, 7) = %d, want -8797857673641491083 (derivation changed!)", got)
	}
	seen := map[int64]bool{}
	for root := int64(0); root < 4; root++ {
		for trial := 0; trial < 64; trial++ {
			s := TrialSeed(root, trial)
			if seen[s] {
				t.Fatalf("TrialSeed collision at root=%d trial=%d", root, trial)
			}
			seen[s] = true
		}
	}
}
