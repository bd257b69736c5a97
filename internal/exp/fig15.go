package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
	"pcc/internal/workload"
)

// RunFig15 reproduces Fig. 15 (§4.3.2): flow completion time for short
// flows. 100 KB flows arrive as a Poisson process on a 15 Mbps / 60 ms
// path, with the arrival rate chosen to hit a target utilization; the
// figure reports median/mean/95th-percentile FCT for PCC vs TCP. PCC's
// TCP-like startup keeps its short-flow FCT comparable.
func RunFig15(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(240, 60, scale)
	loads := []float64{0.05, 0.15, 0.25, 0.35, 0.50, 0.65, 0.75}
	protos := []string{"pcc", "newreno"}
	const flowKB = 100

	rep := &Report{
		ID:     "fig15",
		Title:  "short-flow FCT (100 KB flows, 15 Mbps, 60 ms): Poisson arrivals at varying load",
		Header: []string{"load", "proto", "flows", "median_ms", "mean_ms", "p95_ms"},
	}
	allFCTs, err := protoGrid(ctx, len(loads), protos, func(ts *TrialScratch, l int, proto string, _ int) []float64 {
		return shortFlowFCTs(ts, proto, loads[l], flowKB, dur, seed)
	})
	if err != nil {
		return nil, err
	}
	var sorted []float64 // one sort per cell serves median and p95
	for li, load := range loads {
		for pi, proto := range protos {
			fcts := allFCTs[li][pi]
			if len(fcts) == 0 {
				rep.Rows = append(rep.Rows, []string{f2(load), proto, "0", "-", "-", "-"})
				continue
			}
			sorted = metrics.SortInto(sorted, fcts)
			rep.Rows = append(rep.Rows, []string{
				f2(load), proto, fmt.Sprintf("%d", len(fcts)),
				f1(metrics.PercentileSorted(sorted, 50) * 1e3),
				f1(metrics.Mean(fcts) * 1e3),
				f1(metrics.PercentileSorted(sorted, 95) * 1e3),
			})
		}
	}
	rep.Notes = append(rep.Notes, "paper: PCC matches TCP's median and 95th-percentile FCT (95th at 75% load ~20% longer)")
	return rep, nil
}

// shortFlowFCTs runs the Poisson short-flow workload and returns the
// completion times (seconds) of all flows that finished.
func shortFlowFCTs(ts *TrialScratch, proto string, load float64, flowKB int, dur float64, seed int64) []float64 {
	capacity := netem.Mbps(15)
	arrivalRate := load * capacity / float64(flowKB*1000) // flows per second
	r := ts.Runner(proto, PathSpec{RateMbps: 15, RTT: 0.060, BufBytes: 120 * netem.KB, Seed: seed})
	rng := r.NextRand()

	var fcts []float64
	workload.PoissonArrivals(r.Eng, rng, arrivalRate, dur, func(i int) {
		start := r.Eng.Now()
		flow := r.AddFlow(FlowSpec{Proto: proto, FlowKB: flowKB, StartAt: start})
		if flow.RS != nil {
			flow.RS.OnDone = func(now float64) {
				flow.DoneAt = now
				fcts = append(fcts, now-start)
			}
		} else {
			flow.WS.OnDone = func(now float64) {
				flow.DoneAt = now
				fcts = append(fcts, now-start)
			}
		}
	})
	// Drain stragglers after the arrival window.
	r.Run(dur + 30)
	return fcts
}
