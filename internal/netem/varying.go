package netem

import (
	"math/rand"

	"pcc/internal/sim"
)

// VaryingSpec describes the rapidly-changing network of §4.1.7: every Period
// seconds, bandwidth, RTT and loss rate are each re-drawn independently and
// uniformly from their ranges.
type VaryingSpec struct {
	// Period between re-draws (paper: 5 s).
	Period float64
	// RateMin/RateMax bound the bottleneck rate, bytes/s (paper: 10–100 Mbps).
	RateMin, RateMax float64
	// RTTMin/RTTMax bound the path RTT, seconds (paper: 10–100 ms).
	RTTMin, RTTMax float64
	// LossMin/LossMax bound the wire loss probability (paper: 0–1%).
	LossMin, LossMax float64
}

// Sample holds one drawn network condition.
type Sample struct {
	At   float64
	Rate float64
	RTT  float64
	Loss float64
}

// StartVarying re-draws the bottleneck's rate/loss and the leading delay hop
// of one flow's two routes every spec.Period seconds until stop, recording
// each drawn condition. The returned slice is appended to as the simulation
// runs; read it only after the engine finishes.
func StartVarying(eng *sim.Engine, bottleneck *Link, fwd, rev *Route, spec VaryingSpec, rng *rand.Rand, stop float64) *[]Sample {
	trace := &[]Sample{}
	var redraw func()
	redraw = func() {
		now := eng.Now()
		if now >= stop {
			return
		}
		rate := spec.RateMin + float64(rng.Float64()*(spec.RateMax-spec.RateMin))
		rtt := spec.RTTMin + float64(rng.Float64()*(spec.RTTMax-spec.RTTMin))
		loss := spec.LossMin + float64(rng.Float64()*(spec.LossMax-spec.LossMin))
		bottleneck.SetRate(rate)
		bottleneck.SetLossRate(loss)
		fwd.SetDelay(0, rtt/2)
		rev.SetDelay(0, rtt/2)
		*trace = append(*trace, Sample{At: now, Rate: rate, RTT: rtt, Loss: loss})
		eng.Post(spec.Period, redraw)
	}
	eng.Post(0, redraw)
	return trace
}
