package theory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLossFunction(t *testing.T) {
	g := NewGame(100, 2)
	if g.Loss(50) != 0 || g.Loss(100) != 0 {
		t.Fatal("no loss at or below capacity")
	}
	if l := g.Loss(200); l != 0.5 {
		t.Fatalf("Loss(2C) = %v, want 0.5", l)
	}
}

func TestAlphaSatisfiesTheorem1(t *testing.T) {
	if g := NewGame(100, 2); g.Alpha != 100 {
		t.Fatalf("alpha for n=2 is %v, want 100", g.Alpha)
	}
	if g := NewGame(100, 100); g.Alpha != 2.2*99 {
		t.Fatalf("alpha for n=100 is %v, want %v", g.Alpha, 2.2*99)
	}
}

// Theorem 1: the symmetric equilibrium exists with C < Σx̂ < 20C/19, for a
// range of n.
func TestTheorem1EquilibriumBand(t *testing.T) {
	const C = 100.0
	for _, n := range []int{2, 3, 5, 10, 20, 50} {
		g := NewGame(C, n)
		xh := g.Equilibrium(n, 0.01)
		sum := xh * float64(n)
		if sum <= C || sum >= 20*C/19 {
			t.Errorf("n=%d: Σx̂ = %v outside (C, 20C/19)", n, sum)
		}
	}
}

// Theorem 2: from arbitrary unfair starts, concurrent (1±ε) dynamics land
// every sender inside (x̂(1−ε)², x̂(1+ε)²).
func TestTheorem2Convergence(t *testing.T) {
	const C = 100.0
	const eps = 0.01
	for _, n := range []int{2, 4, 8} {
		g := NewGame(C, n)
		xh := g.Equilibrium(n, eps)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = C / float64(n) / 20
		}
		x0[0] = C
		final := g.Dynamics(x0, eps, 80000)
		lo, hi := xh*(1-eps)*(1-eps), xh*(1+eps)*(1+eps)
		for j, v := range final {
			if v < lo || v > hi {
				t.Errorf("n=%d sender %d at %v outside (%v, %v)", n, j, v, lo, hi)
			}
		}
	}
}

// Property: from random positive starts the dynamics stay positive and
// bounded (no sender diverges or dies).
func TestDynamicsBoundedProperty(t *testing.T) {
	g := NewGame(100, 4)
	f := func(a, b, c, d uint16) bool {
		x0 := []float64{
			1 + float64(a%1000)/10,
			1 + float64(b%1000)/10,
			1 + float64(c%1000)/10,
			1 + float64(d%1000)/10,
		}
		final := g.Dynamics(x0, 0.01, 2000)
		for _, v := range final {
			if v <= 0 || v > 200 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUtilityShape(t *testing.T) {
	g := NewGame(100, 2)
	// Below capacity utility is essentially the rate.
	if g.Utility(40, 40) <= g.Utility(30, 40) {
		t.Fatal("below capacity, higher rate must score higher")
	}
	// Far above capacity utility is negative.
	if g.Utility(150, 150) >= 0 {
		t.Fatal("deep congestion must score negative")
	}
}

// TestDynamicsTraceMonotoneFairness steps the dynamics one iteration at a
// time (each Dynamics call recomputes Σx in the same order, so the
// trajectory is that of one long run) and checks that the max/min rate
// ratio shrank from the first profile to the last.
func TestDynamicsTraceMonotoneFairness(t *testing.T) {
	g := NewGame(100, 4)
	spread := func(x []float64) float64 {
		mn, mx := x[0], x[0]
		for _, v := range x {
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		return mx / mn
	}
	x := []float64{90, 1, 1, 1}
	first := spread(x)
	for s := 1; s < 20000; s++ {
		x = g.Dynamics(x, 0.01, 1)
	}
	if last := spread(x); last >= first {
		t.Fatalf("unfairness did not shrink: %v -> %v", first, last)
	}
}
