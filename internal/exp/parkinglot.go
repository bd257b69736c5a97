package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
	"pcc/internal/workload"
)

// RunParkingLot ("parklot") probes the paper's core robustness claim
// (§2.2–§2.3: utility-driven control needs no knowledge of the network)
// where the dumbbell cannot go: a parking-lot topology with 2–3 bottleneck
// links in series. One long flow crosses every hop while each hop also
// carries its own single-hop cross flow, and Poisson short-flow
// cross-traffic (bounded-Pareto sizes, internal/workload) churns the
// interior link. The figure of merit is the long flow's share relative to
// its per-hop competitors: RTT-biased loss-based TCP squeezes the long flow
// hard (it faces drops at every hop and has the longest RTT), while PCC's
// utility equilibrium keeps it a workable share. Context-aware: a cancelled
// ctx stops the sweep, its running (hops, proto) trials included.
func RunParkingLot(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(120, 30, scale)
	protos := []string{"pcc", "cubic", "newreno"}
	hopCounts := []int{2, 3}

	rep := &Report{
		ID:     "parklot",
		Title:  "parking lot (100 Mbps hops in series, per-hop cross flows + Poisson mice on hop2)",
		Header: []string{"hops", "proto", "long_Mbps", "cross_Mbps", "long/cross", "jain"},
	}
	grid, err := protoGrid(ctx, len(hopCounts), protos, func(ts *TrialScratch, h int, proto string, i int) trialRow {
		nHops := hopCounts[h]
		ts.Stamp("parklot", proto, TrialSeed(seed, i))
		r, long, cross := parkingLotTrial(ts, nHops, proto, dur, TrialSeed(seed, i))
		longT := long.WindowMbps(0.2*dur, dur)
		var crossT []float64
		for _, c := range cross {
			crossT = append(crossT, c.WindowMbps(0.2*dur, dur))
		}
		ratio := 0.0
		if m := metrics.Mean(crossT); m > 0 {
			ratio = longT / m
		}
		tr := trialRow{row: []string{
			fmt.Sprintf("%d", nHops), proto,
			f1(longT), joinF1(crossT), f2(ratio),
			f3(metrics.JainIndex(append([]float64{longT}, crossT...))),
		}}
		// Per-link accounting for the deepest PCC run, so the report shows
		// conservation across every hop of the route.
		if proto == "pcc" && nHops == 3 {
			tr.notes = r.LinkStatsNotes()
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range grid {
		rep.addRows(rows)
	}
	rep.Notes = append(rep.Notes,
		"long flow crosses every hop; each hop also carries one dedicated cross flow, and hop2 (interior for 3 hops, final for 2) adds ~10% Poisson mice load",
		"the paper's single-bottleneck theory (§2.2) does not cover this shape: the long flow sees the sum of per-hop loss rates, so PCC's 5%-sigmoid utility squeezes it hardest (below even New Reno's RTT-biased share) — a measured limitation, not a simulator artifact (a solo flow fills ~98 Mbps over the same 3 hops)")
	return rep, nil
}

// parkingLotTrial builds and runs one parking-lot simulation: nHops
// bottlenecks in series, one long flow over all of them, one cross flow per
// hop, and Poisson short flows on the interior hop. It returns the runner
// (for link stats), the long flow, and the per-hop cross flows.
func parkingLotTrial(ts *TrialScratch, nHops int, proto string, dur float64, seed int64) (*Runner, *Flow, []*Flow) {
	const (
		rateMbps = 100
		linkDel  = 0.005 // per-hop propagation, seconds
		accessD  = 0.002 // per-flow access delay, seconds
	)
	spec := TopologySpec{Seed: seed}
	for i := 0; i < nHops; i++ {
		spec.Links = append(spec.Links, LinkSpec{
			Name: hopName(i), From: fmt.Sprintf("n%d", i), To: fmt.Sprintf("n%d", i+1),
			RateMbps: rateMbps, Delay: linkDel, BufBytes: 250 * netem.KB,
		})
	}
	r := ts.TopologyRunner(fmt.Sprintf("%d/%s", nHops, proto), spec)

	longFwd := []netem.HopSpec{netem.DelayHop(accessD)}
	for i := 0; i < nHops; i++ {
		longFwd = append(longFwd, netem.LinkHop(hopName(i)))
	}
	longRev := []netem.HopSpec{netem.DelayHop(accessD + float64(nHops)*linkDel)}
	long := r.AddFlow(FlowSpec{Proto: proto, FwdRoute: longFwd, RevRoute: longRev, Bucket: 1})

	cross := make([]*Flow, nHops)
	for i := 0; i < nHops; i++ {
		cross[i] = r.AddFlow(FlowSpec{
			Proto:    proto,
			FwdRoute: []netem.HopSpec{netem.DelayHop(accessD), netem.LinkHop(hopName(i))},
			RevRoute: []netem.HopSpec{netem.DelayHop(accessD + linkDel)},
			Bucket:   1,
		})
	}

	// Poisson mice on hop2 (interior for 3 hops, final for 2): ~10% load of
	// bounded-Pareto short flows, the workload §4.3.2 generator pointed at
	// one bottleneck the long flow crosses. New Reno mice regardless of the
	// long-lived protocol — cross-traffic is whatever the internet runs.
	const miceHop = 1
	arrRNG := r.NextRand()
	sizeRNG := r.NextRand()
	miceRoute := []netem.HopSpec{netem.DelayHop(accessD), netem.LinkHop(hopName(miceHop))}
	miceRev := []netem.HopSpec{netem.DelayHop(accessD + linkDel)}
	workload.PoissonArrivals(r.Eng, arrRNG, 10, dur, func(int) {
		r.AddFlow(FlowSpec{
			Proto:    "newreno",
			FwdRoute: miceRoute, RevRoute: miceRev,
			FlowKB:  workload.ParetoFlowKB(sizeRNG, 1.2, 30, 3000),
			StartAt: r.Eng.Now(),
		})
	})

	r.Run(dur)
	return r, long, cross
}

func hopName(i int) string { return fmt.Sprintf("hop%d", i+1) }
