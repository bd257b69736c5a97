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
	cutAt, healAt := 0.35*dur, 0.55*dur

	rep := &Report{
		ID: "partition",
		Title: fmt.Sprintf("partition and heal hop 1 of a 4-hop parking lot (cut %.1fs, heal %.1fs)",
			cutAt, healAt),
		Header: []string{"proto", "victim_Mbps", "ref_Mbps", "reconverge_s", "jain_final"},
	}
	rows, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) trialRow {
		proto := protos[i]
		// Hop 1 goes down in both directions at cutAt and heals at healAt.
		cut := []string{fwdName(1), revName(1)}
		r, _, cross := chainTrial(ts, chainSpec{exp: "partition", nHops: 4, perHop: 1, bucket: 0.1,
			faults: &netem.FaultSchedule{Events: []netem.FaultEvent{
				{At: cutAt, Down: true, Links: cut},
				{At: healAt, Links: cut},
			}},
		}, proto, dur, TrialSeed(seed, i))
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

		tr := trialRow{row: []string{
			proto,
			f1(victim.WindowMbps(0.1*dur, dur)), f1(ref), fmtRecovery(rec), f3(jain),
		}}
		if proto == "pcc" {
			tr.notes = r.FaultStatsNotes()
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	rep.addRows(rows)
	rep.Notes = append(rep.Notes,
		"ref_Mbps: cut-hop cross-flow goodput before the cut; reconverge_s: time after the heal to reach 80% of ref; jain_final: fairness across the per-hop cross flows over the last 20% of the run",
		"the partition severs hop 1 in both directions, so the long flow loses data and ACK paths at once; hops 0/2/3 keep serving their cross flows throughout")
	return rep, nil
}
