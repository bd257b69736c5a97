package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
)

// RunFig8 reproduces Fig. 8 (§4.1.5): RTT fairness. A short-RTT (10 ms)
// flow competes with a long-RTT flow (20–100 ms) on a shared 100 Mbps
// bottleneck whose buffer equals the short flow's BDP. The long flow starts
// 5 s early; the metric is longTput/shortTput (1.0 = perfectly fair). PCC's
// convergence depends on utility, not on control-cycle length, so it should
// stay near 1.
func RunFig8(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(500, 60, scale)
	longRTTs := []float64{0.020, 0.040, 0.060, 0.080, 0.100}
	protos := []string{"pcc", "cubic", "newreno"}

	rep := &Report{
		ID:     "fig8",
		Title:  "RTT fairness (100 Mbps shared, short flow 10 ms): long/short throughput ratio",
		Header: append([]string{"long_RTT_ms"}, protos...),
	}
	shortBDP := int(netem.Mbps(100) * 0.010)
	ratios, err := protoGrid(ctx, len(longRTTs), protos, func(ts *TrialScratch, l int, proto string, _ int) float64 {
		r := ts.Runner(proto, PathSpec{RateMbps: 100, RTT: 0.010, BufBytes: shortBDP, Seed: seed})
		long := r.AddFlow(FlowSpec{Proto: proto, RTT: longRTTs[l], StartAt: 0, Bucket: 1})
		short := r.AddFlow(FlowSpec{Proto: proto, RTT: 0.010, StartAt: 5, Bucket: 1})
		r.Run(5 + dur)
		lt := long.WindowMbps(5, 5+dur)
		st := short.WindowMbps(5, 5+dur)
		if st <= 0 {
			return 0
		}
		return lt / st
	})
	if err != nil {
		return nil, err
	}
	for li, lr := range longRTTs {
		rep.Rows = append(rep.Rows, appendF2([]string{f1(lr * 1e3)}, ratios[li]))
	}
	rep.Notes = append(rep.Notes, "1.00 = RTT-fair; paper: PCC near 1 across the sweep, New Reno far below")
	return rep, nil
}

// RunFig12 reproduces Fig. 12 (§4.2.1): four flows starting 500 s apart on
// a 100 Mbps / 30 ms dumbbell with a BDP buffer. It reports each phase's
// per-flow mean rate and the mean per-flow standard deviation — PCC
// converges to the equal share with far lower variance than CUBIC.
func RunFig12(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	stagger := scaledDur(500, 30, scale)
	protos := []string{"pcc", "cubic"}

	rep := &Report{
		ID:     "fig12",
		Title:  "convergence of 4 staggered flows (100 Mbps, 30 ms, BDP buffer)",
		Header: []string{"proto", "phase(n_flows)", "mean_rates_Mbps", "mean_stddev_Mbps", "jain"},
	}
	protoRows, err := RunPointsScratchCtx(ctx, len(protos), func(pi int, ts *TrialScratch) [][]string {
		proto := protos[pi]
		r := ts.Runner(proto, PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 375 * netem.KB, Seed: seed})
		flows := make([]*Flow, 4)
		for i := range flows {
			flows[i] = r.AddFlow(FlowSpec{Proto: proto, StartAt: float64(i) * stagger, Bucket: 1})
		}
		total := 4 * stagger
		r.Run(total)
		// Phase k (k = 1..4) is [k-1, k)*stagger with k active flows; skip
		// the first 20% of each phase as transient.
		var rows [][]string
		for k := 1; k <= 4; k++ {
			from := float64(float64(k-1)*stagger) + float64(0.2*stagger)
			to := float64(k) * stagger
			var means, stds []float64
			for i := 0; i < k; i++ {
				series := sliceSeries(flows[i].SeriesMbps(), from, to, 1)
				means = append(means, metrics.Mean(series))
				stds = append(stds, metrics.StdDev(series))
			}
			rows = append(rows, []string{
				proto,
				fmt.Sprintf("%d", k),
				joinF1(means),
				f2(metrics.Mean(stds)),
				f3(metrics.JainIndex(means)),
			})
		}
		return rows
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range protoRows {
		rep.Rows = append(rep.Rows, rows...)
	}
	rep.Notes = append(rep.Notes, "paper: PCC flows hold steady equal shares; CUBIC shows high variance and short-term unfairness")
	return rep, nil
}

// RunFig13 reproduces Fig. 13 (§4.2.1): Jain's fairness index at varying
// time scales for 2/3/4 concurrent flows, PCC vs CUBIC vs New Reno.
func RunFig13(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(500, 120, scale)
	protos := []string{"pcc", "cubic", "newreno"}
	timescales := []int{1, 5, 15, 30, 60, 90, 120, 180, 210}

	rep := &Report{
		ID:     "fig13",
		Title:  "Jain's fairness index vs time scale (100 Mbps, 30 ms)",
		Header: append([]string{"proto", "flows"}, intHeaders(timescales, "s")...),
	}
	flowCounts := []int{2, 3, 4}
	rows, err := RunPointsScratchCtx(ctx, len(protos)*len(flowCounts), func(i int, ts *TrialScratch) []string {
		proto := protos[i/len(flowCounts)]
		nf := flowCounts[i%len(flowCounts)]
		r := ts.Runner(proto, PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 375 * netem.KB, Seed: seed})
		flows := make([]*Flow, nf)
		for i := range flows {
			flows[i] = r.AddFlow(FlowSpec{Proto: proto, StartAt: 0, Bucket: 1})
		}
		r.Run(dur)
		// Skip the first 30 s (or 20%) as convergence transient.
		warm := float64(0.2 * dur)
		series := make([][]float64, nf)
		for i, f := range flows {
			series[i] = sliceSeries(f.SeriesMbps(), warm, dur, 1)
		}
		row := []string{proto, fmt.Sprintf("%d", nf)}
		for _, ts := range timescales {
			if ts > int(dur-warm) {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(metrics.WindowedJain(series, ts)))
		}
		return row
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, rows...)
	rep.Notes = append(rep.Notes, "paper: PCC above 0.99 at every time scale; CUBIC/New Reno notably lower at short scales")
	return rep, nil
}

// sliceSeries cuts a 1 Hz series to [from, to) seconds.
func sliceSeries(series []float64, from, to, bucket float64) []float64 {
	lo := int(from / bucket)
	hi := int(to / bucket)
	if lo < 0 {
		lo = 0
	}
	if hi > len(series) {
		hi = len(series)
	}
	if lo >= hi {
		return nil
	}
	return series[lo:hi]
}

func joinF1(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "/"
		}
		s += f1(x)
	}
	return s
}

func intHeaders(xs []int, suffix string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d%s", x, suffix)
	}
	return out
}
