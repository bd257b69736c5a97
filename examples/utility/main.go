// Utility plugging (§2.4, §4.4): the same PCC machinery optimizes different
// objectives by swapping the utility function — no AQM changes needed.
//
// Two scenarios:
//
//  1. An interactive flow on a bufferbloated FQ link: the latency utility
//     keeps self-inflicted queueing near zero while the safe utility (like
//     TCP) fills the buffer.
//
//  2. A flow facing 30% random loss under FQ: the loss-resilient utility
//     u = T·(1−L) keeps sending at its share where the safe utility gives up.
//
//     go run ./examples/utility
package main

import (
	"fmt"

	"pcc/internal/core"
	"pcc/internal/exp"
	"pcc/internal/netem"
)

func main() {
	fmt.Println("scenario 1: 40 Mbps, 20 ms, deep FIFO + FQ (bufferbloat)")
	for _, mode := range []string{"safe", "latency"} {
		r := exp.NewRunner(exp.PathSpec{
			RateMbps: 40, RTT: 0.020, BufBytes: 2000 * netem.KB,
			QueueKind: "fq", Seed: 7,
		})
		cfg, _ := core.UtilityConfig(mode, 0.020)
		f := r.AddFlow(exp.FlowSpec{Proto: "pcc", PCCConfig: &cfg})
		r.Run(40)
		fmt.Printf("  %-8s utility: %5.1f Mbps at mean RTT %6.1f ms (power %.0f)\n",
			mode, f.GoodputMbps(40), f.RS.MeanRTT()*1e3, f.GoodputMbps(40)/f.RS.MeanRTT())
	}

	fmt.Println("\nscenario 2: 100 Mbps, 30 ms, 30% random loss under FQ")
	for _, mode := range []string{"safe", "resilient"} {
		r := exp.NewRunner(exp.PathSpec{
			RateMbps: 100, RTT: 0.030, Loss: 0.30,
			BufBytes: 375 * netem.KB, QueueKind: "fq", Seed: 7,
		})
		cfg, _ := core.UtilityConfig(mode, 0.030)
		f := r.AddFlow(exp.FlowSpec{Proto: "pcc", PCCConfig: &cfg})
		r.Run(60)
		fmt.Printf("  %-10s utility: %5.1f Mbps (achievable %.0f)\n",
			mode, f.GoodputMbps(60), 100*(1-0.30))
	}
}
