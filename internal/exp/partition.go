package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
)

// RunPartition ("partition") cuts and heals a bottleneck inside a 4-hop
// parking lot: at 35% of the run both directions of hop 1 (f1/b1) go down —
// a routing partition isolating the long flow's path while the other hops
// keep their cross traffic — and at 55% the partition heals. The long flow
// and the cut hop's cross flow both see a total outage (data and ACK paths
// severed at once), while the remaining hops stay loaded. Re-convergence is
// measured on the cut hop's cross flow — the direct victim running near link
// rate before the cut, so "time to regain 80% of the pre-partition rate" is
// a sharp signal — and Jain fairness across the per-hop cross flows over the
// final window checks that a hard partition does not leave the
// utility-driven allocation (§2.2) stuck in an unfair state.
func RunPartition(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(40, 10, scale)
	protos := []string{"pcc", "cubic"}
	shards := Shards()
	cutAt, healAt := 0.35*dur, 0.55*dur

	rep := &Report{
		ID: "partition",
		Title: fmt.Sprintf("partition and heal hop 1 of a 4-hop parking lot (cut %.1fs, heal %.1fs)",
			cutAt, healAt),
		Header: []string{"proto", "victim_Mbps", "ref_Mbps", "reconverge_s", "jain_final"},
	}
	type ptResult struct {
		row   []string
		notes []string
	}
	results, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) ptResult {
		proto := protos[i]
		r, _, cross := partitionTrial(ts, proto, dur, cutAt, healAt, TrialSeed(seed, i), shards)
		victim := cross[1] // the cross flow whose hop gets cut

		const bucket = 0.1
		ref := victim.WindowMbps(0.1*dur, cutAt)
		series := ts.f64[:0]
		series = victim.SeriesMbpsInto(series)
		rec := recoveryAfter(series, bucket, healAt, 0.8*ref)

		final := series[:0]
		for _, c := range cross {
			final = append(final, c.WindowMbps(0.8*dur, dur))
		}
		jain := metrics.JainIndex(final)
		ts.f64 = final

		res := ptResult{row: []string{
			proto,
			f1(victim.WindowMbps(0.1*dur, dur)), f1(ref), fmtRecovery(rec), f3(jain),
		}}
		if proto == "pcc" {
			res.notes = r.FaultStatsNotes()
		}
		return res
	})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		rep.Rows = append(rep.Rows, res.row)
		rep.Notes = append(rep.Notes, res.notes...)
	}
	rep.Notes = append(rep.Notes,
		"ref_Mbps: cut-hop cross-flow goodput before the cut; reconverge_s: time after the heal to reach 80% of ref; jain_final: fairness across the per-hop cross flows over the last 20% of the run",
		"the partition severs hop 1 in both directions, so the long flow loses data and ACK paths at once; hops 0/2/3 keep serving their cross flows throughout")
	return rep, nil
}

// partitionTrial builds and runs one partition trial: a 4-hop parking lot
// (100 Mbps forward bottlenecks, 1 Gbps reverse links, heterogeneous 4.0–5.2
// ms hop delays) with one long flow over the chain and one cross flow per
// hop, plus a Partition/Heal event pair cutting f1 and b1. Only n1–n2 is
// pinned together by the fault, so the topology still splits into four
// shards.
func partitionTrial(ts *TrialScratch, proto string, dur, cutAt, healAt float64, seed int64, shards int) (*Runner, *Flow, []*Flow) {
	ts.Stamp("partition", proto, seed)
	const (
		nHops    = 4
		rateMbps = 100
		revMbps  = 1000
		accessD  = 0.002
	)
	hopDelay := func(i int) float64 { return 0.004 + 0.0003*float64(i%5) }
	cutLinks := []string{fwdName(1), revName(1)}
	spec := TopologySpec{
		Seed:   seed,
		Shards: shards,
		Faults: &netem.FaultSchedule{Events: []netem.FaultEvent{
			{At: cutAt, Kind: netem.FaultPartition, Links: cutLinks},
			{At: healAt, Kind: netem.FaultHeal, Links: cutLinks},
		}},
	}
	for i := 0; i < nHops; i++ {
		spec.Links = append(spec.Links,
			LinkSpec{
				Name: fwdName(i), From: nodeName(i), To: nodeName(i + 1),
				RateMbps: rateMbps, Delay: hopDelay(i), BufBytes: 250 * netem.KB,
			},
			LinkSpec{
				Name: revName(i), From: nodeName(i + 1), To: nodeName(i),
				RateMbps: revMbps, Delay: hopDelay(i), BufBytes: 250 * netem.KB,
			})
	}
	r := ts.TopologyRunner(fmt.Sprintf("part/%s/%d", proto, shards), spec)

	longFwd := []netem.HopSpec{netem.DelayHop(accessD)}
	for i := 0; i < nHops; i++ {
		longFwd = append(longFwd, netem.LinkHop(fwdName(i)))
	}
	longRev := make([]netem.HopSpec, 0, nHops+1)
	for i := nHops - 1; i >= 0; i-- {
		longRev = append(longRev, netem.LinkHop(revName(i)))
	}
	longRev = append(longRev, netem.DelayHop(accessD))
	long := r.AddFlow(FlowSpec{Proto: proto, FwdRoute: longFwd, RevRoute: longRev, Bucket: 0.1})

	cross := make([]*Flow, 0, nHops)
	for i := 0; i < nHops; i++ {
		cross = append(cross, r.AddFlow(FlowSpec{
			Proto:    proto,
			FwdRoute: []netem.HopSpec{netem.DelayHop(accessD), netem.LinkHop(fwdName(i))},
			RevRoute: []netem.HopSpec{netem.LinkHop(revName(i)), netem.DelayHop(accessD)},
			StartAt:  0.05 + 0.013*float64(i),
			Bucket:   0.1,
		}))
	}

	r.Run(dur)
	return r, long, cross
}
