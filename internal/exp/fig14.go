package exp

import (
	"context"
	"fmt"

	"pcc/internal/netem"
)

// RunFig14 reproduces Fig. 14 (§4.3.1): TCP friendliness. One normal New
// Reno flow competes against n "selfish flows", where a selfish flow is
// either a bundle of 10 parallel New Reno connections (TCP-Selfish — a
// common practice) or a single PCC flow. The relative unfriendliness ratio
// is the normal flow's throughput when competing with PCC divided by its
// throughput when competing with TCP-Selfish: above 1 means PCC is the
// friendlier neighbour.
func RunFig14(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 40, scale)
	nets := []struct {
		RateMbps float64
		RTT      float64
	}{
		{10, 0.010}, {30, 0.020}, {30, 0.010}, {100, 0.010},
	}
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8}

	rep := &Report{
		ID:     "fig14",
		Title:  "TCP friendliness: normal-TCP throughput with PCC rivals / with 10-parallel-TCP rivals",
		Header: append([]string{"network"}, intHeaders(counts, " selfish")...),
	}
	// Two trials per (network, count) cell: rivals are n PCC flows, or n
	// bundles of 10 parallel TCP flows. Run the widest flow fans first so
	// each worker's arena reaches its high-water flow count immediately and
	// every narrower point rebuilds warm.
	nPoints := len(nets) * len(counts) * 2
	order := descendingBy(nPoints, func(i int) int {
		width := 1
		if i%2 == 1 {
			width = 10
		}
		return counts[(i/2)%len(counts)] * width
	})
	tputs := make([]float64, nPoints)
	err := RunTrialsScratchCtx(ctx, nPoints, func(k int, ts *TrialScratch) {
		i := order[k]
		nw := nets[i/(len(counts)*2)]
		n := counts[(i/2)%len(counts)]
		buf := int(netem.Mbps(nw.RateMbps) * nw.RTT)
		if i%2 == 0 {
			tputs[i] = normalTCPThroughput(ts, nw.RateMbps, nw.RTT, buf, n, "pcc", 1, dur, seed)
		} else {
			tputs[i] = normalTCPThroughput(ts, nw.RateMbps, nw.RTT, buf, n, "newreno", 10, dur, seed)
		}
	})
	if err != nil {
		return nil, err
	}
	for ni, nw := range nets {
		row := []string{fmt.Sprintf("%.0fMbps,%.0fms", nw.RateMbps, nw.RTT*1e3)}
		for ci := range counts {
			withPCC := tputs[(ni*len(counts)+ci)*2]
			withBundle := tputs[(ni*len(counts)+ci)*2+1]
			ratio := 0.0
			if withBundle > 0 {
				ratio = withPCC / withBundle
			}
			row = append(row, f2(ratio))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		">1: PCC is friendlier than the 10-parallel-TCP selfish practice (paper: ratio rises above 1 as selfish senders increase)")
	return rep, nil
}

// normalTCPThroughput measures one normal New Reno flow's goodput (Mbps)
// when sharing the path with n selfish flows, each made of `width`
// connections of the given protocol. The arena is keyed by the rival
// protocol: flow counts vary per trial, but the flow pool reuses whatever
// prefix matches.
func normalTCPThroughput(ts *TrialScratch, rateMbps, rtt float64, buf, n int, proto string, width int, dur float64, seed int64) float64 {
	r := ts.Runner(proto, PathSpec{RateMbps: rateMbps, RTT: rtt, BufBytes: buf, Seed: seed})
	normal := r.AddFlow(FlowSpec{Proto: "newreno"})
	for i := 0; i < n*width; i++ {
		r.AddFlow(FlowSpec{Proto: proto})
	}
	r.Run(dur)
	return normal.GoodputMbps(dur)
}
