package core

import (
	"math/rand"
	"testing"
)

// exerciseController drives a controller through a seeded random schedule of
// MI assignments and (partly out-of-order, partly dropped) result
// deliveries, recording every rate the controller hands out or settles on.
// Dropped MIs never hand their roles back — the residue that must not leak
// into the next trial.
func exerciseController(c *Controller, u *float64) []float64 {
	rng := rand.New(rand.NewSource(7))
	var rates []float64
	var pending []miRole
	for step := 0; step < 400; step++ {
		if rng.Intn(3) < 2 || len(pending) == 0 {
			role := c.nextMI()
			rates = append(rates, role.rate)
			pending = append(pending, role)
			continue
		}
		k := rng.Intn(len(pending))
		role := pending[k]
		pending = append(pending[:k], pending[k+1:]...)
		if rng.Intn(8) == 0 {
			continue // result lost: the MI's role is never handed back
		}
		*u = float64(1 + rng.Intn(5))
		c.deliver(role, MIStats{})
		rates = append(rates, c.Rate())
	}
	return rates
}

// TestControllerResetDeterministic is the regression test for the role-store
// recycling bug: role bookkeeping used to recycle ids through a free list
// refilled by map iteration, so the post-Reset id sequence — and with it the
// replay behaviour — depended on Go's randomized map order. Roles now live in
// the monitor's MI records and the controller keeps none, and this test pins
// the guarantee: the same seeded exercise replays the identical rate
// sequence across repeated Resets and matches a fresh controller exactly.
func TestControllerResetDeterministic(t *testing.T) {
	u := 1.0
	cfg := DefaultConfig(0.03)
	cfg.Utility = constUtility{&u}

	fresh := NewController(cfg, rand.New(rand.NewSource(5)))
	want := exerciseController(fresh, &u)

	reused := NewController(cfg, rand.New(rand.NewSource(5)))
	exerciseController(reused, &u)
	for trial := 0; trial < 3; trial++ {
		reused.Reset(cfg, rand.New(rand.NewSource(5)))
		got := exerciseController(reused, &u)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rates recorded, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rate[%d] = %v, want %v (reset leaked role state)",
					trial, i, got[i], want[i])
			}
		}
	}
}
