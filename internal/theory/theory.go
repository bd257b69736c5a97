// Package theory implements the §2.2 game-theoretic model of competing PCC
// senders: n senders share a bottleneck of capacity C, each choosing a rate
// to maximize the safe utility
//
//	u_i(x) = T_i(x)·Sigmoid(L(x)−0.05) − x_i·L(x)
//
// with L(x) = max{0, 1−C/Σx} the per-packet loss probability and
// T_i = x_i·(1−L). The package provides the utility itself, a numeric
// equilibrium solver, and the concurrent (1±ε) update dynamics, so that
// Theorem 1 (a unique, fair stable state exists when α ≥ max{2.2(n−1),100})
// and Theorem 2 (the dynamics converge into (x̂(1−ε)², x̂(1+ε)²)) can be
// validated numerically by tests and benchmarks.
package theory

import "math"

// Game is the n-sender bottleneck game.
type Game struct {
	// C is the bottleneck capacity (arbitrary rate units).
	C float64
	// Alpha is the sigmoid steepness; Theorem 1 needs
	// α ≥ max{2.2(n−1), 100}.
	Alpha float64
	// LossCap is the sigmoid knee (paper: 0.05).
	LossCap float64
}

// NewGame returns a game with capacity c and a Theorem-1-compliant α for n
// senders.
func NewGame(c float64, n int) *Game {
	alpha := 2.2 * float64(n-1)
	if alpha < 100 {
		alpha = 100
	}
	return &Game{C: c, Alpha: alpha, LossCap: 0.05}
}

// Loss returns L(x) = max{0, 1 − C/Σx}.
func (g *Game) Loss(sum float64) float64 {
	if sum <= g.C {
		return 0
	}
	return 1 - g.C/sum
}

// Utility returns u_i for sender i sending xi while the rest of the senders
// sum to rest.
func (g *Game) Utility(xi, rest float64) float64 {
	l := g.Loss(xi + rest)
	t := xi * (1 - l)
	return float64(t*sigmoid(l-g.LossCap, g.Alpha)) - float64(xi*l)
}

func sigmoid(y, alpha float64) float64 {
	e := alpha * y
	if e > 50 {
		return 0
	}
	if e < -50 {
		return 1
	}
	return 1 / (1 + math.Exp(e))
}

// prefersUp reports whether sender i at xi (others at rest) gains more
// utility from x_i(1+ε) than from x_i(1−ε).
func (g *Game) prefersUp(xi, rest, eps float64) bool {
	return g.Utility(xi*(1+eps), rest) > g.Utility(xi*(1-eps), rest)
}

// Equilibrium numerically locates the symmetric stable state x̂ for n
// senders: the per-sender rate at which the (1±ε) preference flips from up
// to down, found by bisection. Theorem 1 guarantees it is unique and that
// Σx̂ lies in (C, 20C/19).
func (g *Game) Equilibrium(n int, eps float64) float64 {
	lo := g.C / float64(n) * 0.5 // below fair share: everyone prefers up
	hi := g.C / float64(n) * 2   // far above: everyone prefers down
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if g.prefersUp(mid, mid*float64(n-1), eps) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Dynamics runs the §2.2 control algorithm: at every step each sender j
// concurrently moves to x_j(1+ε) if that direction has higher utility
// against the current profile, else to x_j(1−ε). It returns the final
// profile after steps iterations.
func (g *Game) Dynamics(x0 []float64, eps float64, steps int) []float64 {
	x := append([]float64(nil), x0...)
	next := make([]float64, len(x))
	var sum float64
	for _, v := range x {
		sum += v
	}
	for s := 0; s < steps; s++ {
		for j := range x {
			rest := sum - x[j]
			if g.prefersUp(x[j], rest, eps) {
				next[j] = x[j] * (1 + eps)
			} else {
				next[j] = x[j] * (1 - eps)
			}
		}
		sum = 0
		for j := range x {
			x[j] = next[j]
			sum += x[j]
		}
	}
	return x
}
