package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/workload"
)

// RunFig5 reproduces Figs. 4/5 (§4.1.1): a Monte-Carlo stand-in for the 510
// PlanetLab/GENI sender-receiver pairs. For each sampled path it measures
// PCC, CUBIC, SABUL and PCP throughput and reports the distribution of
// PCC's improvement ratio (paper: 5.52x median vs CUBIC, >=10x on 41% of
// pairs; 1.41x median vs SABUL; 4.58x median vs PCP).
func RunFig5(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	n := int(40 * scale)
	if n < 8 {
		n = 8
	}
	dur := scaledDur(60, 20, scale)
	paths := workload.SampleInternetPaths(n, seed)

	rivals := []string{"cubic", "sabul", "pcp"}
	perPath, err := RunPointsScratchCtx(ctx, len(paths), func(i int, ts *TrialScratch) []float64 {
		p := paths[i]
		path := PathSpec{RateMbps: p.RateMbps, RTT: p.RTT, Loss: p.Loss, BufBytes: p.BufBytes, Seed: seed + int64(i)*7}
		pccT := runSingle(ts, path, "pcc", dur)
		out := make([]float64, len(rivals))
		for k, rival := range rivals {
			rT := runSingle(ts, path, rival, dur)
			if rT <= 0 {
				rT = 0.01
			}
			out[k] = pccT / rT
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	ratios := map[string][]float64{}
	for _, rs := range perPath {
		for k, rival := range rivals {
			ratios[rival] = append(ratios[rival], rs[k])
		}
	}

	rep := &Report{
		ID:     "fig5",
		Title:  fmt.Sprintf("Internet ensemble (%d sampled paths): PCC throughput improvement ratio", n),
		Header: []string{"vs", "p10", "median", "p90", "frac>=2x", "frac>=10x"},
	}
	var sorted []float64 // one sort per rival serves all three quantiles
	for _, rival := range rivals {
		rs := ratios[rival]
		sorted = metrics.SortInto(sorted, rs)
		rep.Rows = append(rep.Rows, []string{
			rival,
			f2(metrics.PercentileSorted(sorted, 10)),
			f2(metrics.PercentileSorted(sorted, 50)),
			f2(metrics.PercentileSorted(sorted, 90)),
			f2(metrics.FracAtLeast(rs, 2)),
			f2(metrics.FracAtLeast(rs, 10)),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: median 5.52x vs CUBIC (>=10x on 41% of pairs), 1.41x vs SABUL, 4.58x vs PCP")
	return rep, nil
}
