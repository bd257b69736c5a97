// Quickstart: run one PCC flow over a simulated 100 Mbps / 30 ms path and
// watch the learner track the link capacity.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"pcc/internal/exp"
	"pcc/internal/netem"
)

func main() {
	r := exp.NewRunner(exp.PathSpec{
		RateMbps:  100,
		RTT:       0.030,
		BufBytes:  375 * netem.KB,
		QueueKind: "droptail",
		Seed:      1,
	})
	flow := r.AddFlow(exp.FlowSpec{Proto: "pcc", Bucket: 1})

	fmt.Println("PCC on a clean 100 Mbps, 30 ms RTT path")
	fmt.Println("t(s)  goodput(Mbps)  controller_rate(Mbps)  state")
	for _, until := range []float64{1, 2, 5, 10, 20, 30} {
		r.Run(until)
		series := flow.SeriesMbps()
		last := 0.0
		if len(series) > 0 {
			last = series[len(series)-1]
		}
		fmt.Printf("%4.0f  %13.1f  %21.1f  %s\n",
			until, last, flow.PCC.Controller().Rate()*8/1e6, flow.PCC.Controller().State())
	}
	fmt.Printf("\naverage goodput over 30 s: %.1f Mbps (capacity 100)\n", flow.GoodputMbps(30))
	fmt.Printf("monitor intervals: %d, decisions: %d, reversions: %d\n",
		flow.PCC.MICount, flow.PCC.Controller().Decisions(), flow.PCC.Controller().Reversions())
}
