package exp

import (
	"context"
	"fmt"

	"pcc/internal/core"
	"pcc/internal/metrics"
	"pcc/internal/netem"
)

// TradeoffPoint is one point in the Fig. 16 stability-reactiveness space.
type TradeoffPoint struct {
	Label       string
	ConvergeSec float64 // forward-looking convergence time of the new flow
	StdDevMbps  float64 // throughput std-dev for 60 s after convergence
}

// RunFig16 reproduces Fig. 16 (§4.2.2): the convergence-time /
// rate-variance trade-off. Flow A occupies a 100 Mbps / 30 ms path; flow B
// joins at t=20 s. Convergence time is the first t after which B stays
// within ±25% of its 50 Mbps fair share for 5 s; stability is B's
// throughput std-dev over the following 60 s. PCC traces a curve through
// the space by sweeping T_m and ε_min, with and without RCTs; the TCP
// variants are fixed points.
func RunFig16(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	trials := int(5 * scale)
	if trials < 1 {
		trials = 1
	}

	type cfg struct {
		label string
		proto string
		pcc   *core.Config
	}
	var cfgs []cfg
	// PCC sweep: fix ε=0.01, vary T_m; then fix T_m=1.0·RTT, vary ε.
	for _, tm := range []float64{4.8, 3.0, 2.0, 1.0} {
		c := pccTradeoffConfig(tm, 0.01, false)
		cfgs = append(cfgs, cfg{fmt.Sprintf("pcc Tm=%.1fRTT eps=0.01", tm), "pcc", &c})
	}
	for _, eps := range []float64{0.02, 0.03, 0.05} {
		c := pccTradeoffConfig(1.0, eps, false)
		cfgs = append(cfgs, cfg{fmt.Sprintf("pcc Tm=1.0RTT eps=%.2f", eps), "pcc", &c})
	}
	// The no-RCT ablation at the "sweet spot" settings.
	for _, eps := range []float64{0.01, 0.02} {
		c := pccTradeoffConfig(1.0, eps, true)
		cfgs = append(cfgs, cfg{fmt.Sprintf("pcc-noRCT Tm=1.0RTT eps=%.2f", eps), "pcc", &c})
	}
	for _, proto := range []string{"cubic", "newreno", "vegas", "bic", "hybla", "westwood"} {
		cfgs = append(cfgs, cfg{proto, proto, nil})
	}

	rep := &Report{
		ID:     "fig16",
		Title:  "stability vs reactiveness (100 Mbps, 30 ms; flow B joins at 20 s)",
		Header: []string{"config", "convergence_s", "stddev_Mbps"},
	}
	type trialResult struct{ conv, std float64 }
	results, err := RunPointsScratchCtx(ctx, len(cfgs)*trials, func(i int, ts *TrialScratch) trialResult {
		c := cfgs[i/trials]
		conv, std := tradeoffTrial(ts, c.proto, c.pcc, seed+int64(i%trials)*977)
		return trialResult{conv: conv, std: std}
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cfgs {
		var convs, stds []float64
		for trial := 0; trial < trials; trial++ {
			res := results[ci*trials+trial]
			if res.conv >= 0 {
				convs = append(convs, res.conv)
				stds = append(stds, res.std)
			}
		}
		if len(convs) == 0 {
			rep.Rows = append(rep.Rows, []string{c.label, "no-convergence", "-"})
			continue
		}
		rep.Rows = append(rep.Rows, []string{c.label, f1(metrics.Mean(convs)), f2(metrics.Mean(stds))})
	}
	rep.Notes = append(rep.Notes,
		"paper: PCC's curve dominates the TCP points; RCT trades ~3% convergence time for ~35% variance reduction at Tm=1.0RTT eps=0.01")
	return rep, nil
}

// pccTradeoffConfig builds a PCC config with a fixed MI length (in RTTs)
// and ε_min, optionally without RCTs.
func pccTradeoffConfig(tmRTT, eps float64, noRCT bool) core.Config {
	c := core.DefaultConfig(0.030)
	c.MIRttLo, c.MIRttHi = tmRTT, tmRTT
	c.EpsMin = eps
	c.EpsMax = 5 * eps
	c.NoRCT = noRCT
	return c
}

// tradeoffTrial runs one A/B contention trial, returning flow B's
// convergence time (seconds since its start; -1 if it never converges) and
// post-convergence std-dev (Mbps).
func tradeoffTrial(ts *TrialScratch, proto string, pcfg *core.Config, seed int64) (float64, float64) {
	const joinAt = 20.0
	r := ts.Runner(proto, PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 375 * netem.KB, Seed: seed})
	r.AddFlow(FlowSpec{Proto: proto, PCCConfig: pcfg, StartAt: 0, Bucket: 1})
	b := r.AddFlow(FlowSpec{Proto: proto, PCCConfig: pcfg, StartAt: joinAt, Bucket: 1})
	r.Run(joinAt + 160)

	ts.f64 = b.SeriesMbpsInto(ts.f64)
	series := ts.f64
	// Re-index so second 0 is flow B's start.
	off := int(joinAt)
	if off >= len(series) {
		return -1, 0
	}
	bSeries := series[off:]
	conv := metrics.ConvergenceTime(bSeries, 50, 5, 0.25)
	if conv < 0 {
		return -1, 0
	}
	from := int(conv)
	to := from + 60
	if to > len(bSeries) {
		to = len(bSeries)
	}
	if to-from < 10 {
		return -1, 0
	}
	return conv, metrics.StdDev(bSeries[from:to])
}
