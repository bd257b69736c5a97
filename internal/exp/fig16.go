package exp

import (
	"context"
	"fmt"

	"pcc/internal/core"
	"pcc/internal/metrics"
	"pcc/internal/netem"
)

// RunFig16 reproduces Fig. 16 (§4.2.2): the convergence-time /
// rate-variance trade-off. Flow A occupies a 100 Mbps / 30 ms path; flow B
// joins at t=20 s. Convergence time is the first t after which B stays
// within ±25% of its 50 Mbps fair share for 5 s; stability is B's
// throughput std-dev over the following 60 s. PCC traces a curve through
// the space by sweeping T_m and ε_min, with and without RCTs; the TCP
// variants are fixed points. Each trial stops once its two numbers are
// final: at B's convergence plus the 60 s it reads, not at a fixed 180 s.
func RunFig16(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	trials := int(5 * scale)
	if trials < 1 {
		trials = 1
	}

	cfgs := tradeoffConfigs()
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

// tradeoffConfig is one fig16 row: a protocol, with its PCC config when it
// is PCC.
type tradeoffConfig struct {
	label string
	proto string
	pcc   *core.Config
}

// tradeoffConfigs returns fig16's rows in report order.
func tradeoffConfigs() []tradeoffConfig {
	var cfgs []tradeoffConfig
	// PCC sweep: fix ε=0.01, vary T_m; then fix T_m=1.0·RTT, vary ε.
	for _, tm := range []float64{4.8, 3.0, 2.0, 1.0} {
		c := pccTradeoffConfig(tm, 0.01, false)
		cfgs = append(cfgs, tradeoffConfig{fmt.Sprintf("pcc Tm=%.1fRTT eps=0.01", tm), "pcc", &c})
	}
	for _, eps := range []float64{0.02, 0.03, 0.05} {
		c := pccTradeoffConfig(1.0, eps, false)
		cfgs = append(cfgs, tradeoffConfig{fmt.Sprintf("pcc Tm=1.0RTT eps=%.2f", eps), "pcc", &c})
	}
	// The no-RCT ablation at the "sweet spot" settings.
	for _, eps := range []float64{0.01, 0.02} {
		c := pccTradeoffConfig(1.0, eps, true)
		cfgs = append(cfgs, tradeoffConfig{fmt.Sprintf("pcc-noRCT Tm=1.0RTT eps=%.2f", eps), "pcc", &c})
	}
	for _, proto := range []string{"cubic", "newreno", "vegas", "bic", "hybla", "westwood"} {
		cfgs = append(cfgs, tradeoffConfig{proto, proto, nil})
	}
	return cfgs
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

// A fig16 trial's timeline, in seconds: flow B joins at tradeoffJoin, and
// the trial follows it for at most tradeoffSpan more. B has converged once
// it holds its share for tradeoffHold seconds, and its stability is read
// over the tradeoffWindow seconds after that.
const (
	tradeoffJoin   = 20
	tradeoffSpan   = 160
	tradeoffHold   = 5
	tradeoffWindow = 60
)

// tradeoffTrial runs one A/B contention trial, returning flow B's
// convergence time (seconds since its start; -1 if it never converges) and
// post-convergence std-dev (Mbps). It simulates only until both numbers are
// final (see tradeoffNext), which gives exactly the answer of a run to
// tradeoffJoin+tradeoffSpan: RunUntil resumes without posting an event, and
// a second below the clock never changes again.
func tradeoffTrial(ts *TrialScratch, proto string, pcfg *core.Config, seed int64) (float64, float64) {
	r := ts.Runner(proto, PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 375 * netem.KB, Seed: seed})
	r.AddFlow(FlowSpec{Proto: proto, PCCConfig: pcfg, StartAt: 0, Bucket: 1})
	b := r.AddFlow(FlowSpec{Proto: proto, PCCConfig: pcfg, StartAt: tradeoffJoin, Bucket: 1})
	for t := tradeoffHold + 1; t > 0; {
		r.Run(float64(tradeoffJoin + t))
		ts.f64 = b.SeriesMbpsInto(ts.f64)
		t = tradeoffNext(sinceJoin(ts.f64), t)
	}
	return tradeoffResult(sinceJoin(ts.f64))
}

// tradeoffConvergence is §4.2.2's convergence time of B's per-second series:
// within ±25 % of its 50 Mbps fair share for tradeoffHold seconds.
func tradeoffConvergence(b []float64) float64 {
	return metrics.ConvergenceTime(b, 50, tradeoffHold, 0.25)
}

// sinceJoin re-indexes a per-second series so second 0 is flow B's start.
func sinceJoin(series []float64) []float64 {
	if len(series) <= tradeoffJoin {
		return nil
	}
	return series[tradeoffJoin:]
}

// tradeoffNext is a trial's stop rule. Given B's series b after the trial
// ran to t seconds past B's start, it returns the B time to run to next, or
// 0 once tradeoffResult(b) is final. Only b[:t] is complete, and
// ConvergenceTime finds the same c on any prefix that holds c's whole
// window, so the search steps one second at a time until it finds c. The
// trial then runs on to c+tradeoffWindow, which completes the last second
// the answer reads.
// If B was silent at the end of that window, b is shorter than the window
// and the zero seconds a longer run would add are not there yet, so the
// trial runs to tradeoffSpan, as does one that never converges.
func tradeoffNext(b []float64, t int) int {
	if t >= tradeoffSpan {
		return 0
	}
	c := tradeoffConvergence(b[:min(t, len(b))])
	if c < 0 {
		return t + 1
	}
	end := min(int(c)+tradeoffWindow, tradeoffSpan)
	switch {
	case t < end:
		return end
	case len(b) < end:
		return tradeoffSpan
	}
	return 0
}

// tradeoffResult reads a trial's two numbers from B's series: its
// convergence time and its std-dev over the tradeoffWindow seconds after it.
func tradeoffResult(b []float64) (float64, float64) {
	conv := tradeoffConvergence(b)
	if conv < 0 {
		return -1, 0
	}
	from := int(conv)
	to := min(from+tradeoffWindow, len(b))
	if to-from < 10 {
		return -1, 0
	}
	return conv, metrics.StdDev(b[from:to])
}
