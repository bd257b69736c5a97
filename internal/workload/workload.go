// Package workload provides the traffic generators behind the paper's
// evaluation scenarios: Poisson short-flow arrivals (§4.3.2), synchronized
// incast fan-in (§4.1.8), staggered long flows (§4.2) and the Monte-Carlo
// wide-area path sampler standing in for the PlanetLab/GENI measurement
// ensemble (§4.1.1).
package workload

import (
	"math"
	"math/rand"

	"pcc/internal/netem"
	"pcc/internal/sim"
)

// PoissonArrivals schedules spawn(i) at exponentially distributed
// inter-arrival times with the given mean rate (arrivals/second) until
// stop. It returns immediately; arrivals happen as the engine runs.
func PoissonArrivals(eng *sim.Engine, rng *rand.Rand, rate float64, stop float64, spawn func(i int)) {
	if rate <= 0 {
		return
	}
	i := 0
	var next func()
	next = func() {
		if eng.Now() >= stop {
			return
		}
		spawn(i)
		i++
		eng.Post(rng.ExpFloat64()/rate, next)
	}
	eng.Post(rng.ExpFloat64()/rate, next)
}

// ParetoFlowKB draws a short-flow size in KB from a bounded Pareto
// distribution — the classic mice-and-elephants mix of cross-traffic: most
// flows near minKB, a heavy tail up to maxKB. alpha is the tail index
// (smaller = heavier tail; web traffic is usually fit with 1.1–1.3).
func ParetoFlowKB(rng *rand.Rand, alpha float64, minKB, maxKB int) int {
	lo, hi := float64(minKB), float64(maxKB)
	u := rng.Float64()
	// Inverse CDF of the Pareto truncated to [lo, hi].
	x := lo / math.Pow(1-float64(u*(1-math.Pow(lo/hi, alpha))), 1/alpha)
	if x > hi {
		x = hi
	}
	return int(x)
}

// PathSample is one sampled wide-area path.
type PathSample struct {
	RateMbps float64
	RTT      float64 // seconds
	Loss     float64
	BufBytes int
}

// SampleInternetPaths draws n paths spanning the diversity the paper
// measured across its 510 PlanetLab/GENI pairs: BDPs from ~14 KB to ~18 MB,
// frequent low-grade random loss, and buffers between a small fraction of
// BDP and bufferbloat depth.
func SampleInternetPaths(n int, seed int64) []PathSample {
	rng := sim.NewSeeds(seed).NextRand()
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + float64(rng.Float64()*(math.Log(hi)-math.Log(lo))))
	}
	paths := make([]PathSample, n)
	for i := range paths {
		rate := logU(2, 500)    // Mbps
		rtt := logU(0.01, 0.40) // seconds
		loss := 0.0
		if rng.Float64() < 0.6 {
			loss = logU(0.0002, 0.02)
		}
		bdp := netem.Mbps(rate) * rtt
		buf := int(bdp * logU(0.02, 2.0))
		if buf < 3000 {
			buf = 3000
		}
		paths[i] = PathSample{RateMbps: rate, RTT: rtt, Loss: loss, BufBytes: buf}
	}
	return paths
}
