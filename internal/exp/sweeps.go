package exp

import (
	"context"
	"fmt"

	"pcc/internal/core"
	"pcc/internal/netem"
)

// runSingle runs one flow of the given protocol over the path for dur
// seconds and returns its goodput in Mbps. The runner comes from the
// worker's trial arena, keyed by protocol, so a sweep's repeated
// single-flow trials reuse one warm simulation per protocol.
func runSingle(ts *TrialScratch, path PathSpec, proto string, dur float64) float64 {
	r := ts.Runner(proto, path)
	f := r.AddFlow(FlowSpec{Proto: proto})
	r.Run(dur)
	return f.GoodputMbps(dur)
}

// appendF2 appends one %.2f cell per value to row.
func appendF2(row []string, vals []float64) []string {
	for _, v := range vals {
		row = append(row, f2(v))
	}
	return row
}

// RunFig6 reproduces Fig. 6 (§4.1.3): an emulated satellite link — 42 Mbps,
// 800 ms RTT, 0.74% random loss — sweeping the bottleneck buffer from
// 1.5 KB to 1 MB. PCC should sit near capacity even with tiny buffers while
// Hybla/Illinois/CUBIC/New Reno collapse.
func RunFig6(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 60, scale)
	buffers := []int{1500, 7500, 15 * netem.KB, 30 * netem.KB, 75 * netem.KB, 150 * netem.KB, 375 * netem.KB, 1000 * netem.KB}
	protos := []string{"pcc", "hybla", "illinois", "cubic", "newreno"}

	rep := &Report{
		ID:     "fig6",
		Title:  "satellite link (42 Mbps, 800 ms RTT, 0.74% loss): throughput vs buffer size",
		Header: append([]string{"buffer_KB"}, protos...),
	}
	tputs, err := protoGrid(ctx, len(buffers), protos, func(ts *TrialScratch, b int, proto string, _ int) float64 {
		path := PathSpec{RateMbps: 42, RTT: 0.8, Loss: 0.0074, BufBytes: buffers[b], Seed: seed}
		return runSingle(ts, path, proto, dur)
	})
	if err != nil {
		return nil, err
	}
	for bi, buf := range buffers {
		rep.Rows = append(rep.Rows, appendF2([]string{fmt.Sprintf("%.1f", float64(buf)/netem.KB)}, tputs[bi]))
	}
	// The sweep ends at 1 MB; protos open with pcc, hybla.
	if at1MB := tputs[len(buffers)-1]; at1MB[1] > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("at 1 MB buffer: PCC %.1f Mbps vs Hybla %.1f Mbps (%.1fx; paper: 17x)",
			at1MB[0], at1MB[1], at1MB[0]/at1MB[1]))
	}
	return rep, nil
}

// RunFig7 reproduces Fig. 7 (§4.1.4): random-loss resilience on a 100 Mbps,
// 30 ms link, sweeping loss 0–6% on both directions. PCC should hold >90%
// of achievable capacity to 1% loss; CUBIC collapses by 0.1%.
func RunFig7(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 30, scale)
	losses := []float64{0, 0.001, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.04, 0.05, 0.06}
	protos := []string{"pcc", "illinois", "cubic"}

	rep := &Report{
		ID:     "fig7",
		Title:  "random loss (100 Mbps, 30 ms): throughput vs loss rate",
		Header: append(append([]string{"loss"}, protos...), "achievable"),
	}
	tputs, err := protoGrid(ctx, len(losses), protos, func(ts *TrialScratch, l int, proto string, _ int) float64 {
		path := PathSpec{RateMbps: 100, RTT: 0.030, Loss: losses[l], BufBytes: 375 * netem.KB, Seed: seed}
		// Loss applies on forward path; paper also injects reverse loss.
		r := ts.Runner(proto, path)
		f := r.AddFlow(FlowSpec{Proto: proto, RevLoss: losses[l]})
		r.Run(dur)
		return f.GoodputMbps(dur)
	})
	if err != nil {
		return nil, err
	}
	var pccAt2, cubicAt2 float64
	for li, loss := range losses {
		row := appendF2([]string{f3(loss)}, tputs[li])
		rep.Rows = append(rep.Rows, append(row, f2(100*(1-loss))))
		if loss == 0.02 { // protos: pcc, illinois, cubic
			pccAt2, cubicAt2 = tputs[li][0], tputs[li][2]
		}
	}
	if cubicAt2 > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("at 2%% loss: PCC/CUBIC = %.1fx (paper: 37x)", pccAt2/cubicAt2))
	}
	return rep, nil
}

// RunFig9 reproduces Fig. 9 (§4.1.6): shallow buffers on a 100 Mbps, 30 ms
// link, buffer swept from one packet to 1×BDP (375 KB). PCC needs ~6 MSS
// for 90% utilization; CUBIC and even paced New Reno need far more.
func RunFig9(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 30, scale)
	buffers := []int{1500, 3000, 4500, 9000, 15 * netem.KB, 30 * netem.KB, 75 * netem.KB, 150 * netem.KB, 225 * netem.KB, 300 * netem.KB, 375 * netem.KB}
	protos := []string{"pcc", "pacing", "cubic"}

	rep := &Report{
		ID:     "fig9",
		Title:  "shallow buffers (100 Mbps, 30 ms): throughput vs buffer size",
		Header: append([]string{"buffer_KB"}, protos...),
	}
	tputs, err := protoGrid(ctx, len(buffers), protos, func(ts *TrialScratch, b int, proto string, _ int) float64 {
		path := PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: buffers[b], Seed: seed}
		return runSingle(ts, path, proto, dur)
	})
	if err != nil {
		return nil, err
	}
	for bi, buf := range buffers {
		rep.Rows = append(rep.Rows, appendF2([]string{fmt.Sprintf("%.1f", float64(buf)/netem.KB)}, tputs[bi]))
	}
	for pi, proto := range protos {
		note := fmt.Sprintf("%s never reaches 90%% capacity in sweep", proto)
		for bi, buf := range buffers {
			if tputs[bi][pi] >= 90 {
				note = fmt.Sprintf("%s reaches 90%% capacity with %.1f KB buffer", proto, float64(buf)/netem.KB)
				break
			}
		}
		rep.Notes = append(rep.Notes, note)
	}
	return rep, nil
}

// RunLossResilient reproduces §4.4.2: with fair queueing isolating flows, a
// PCC sender using u = T·(1−L) keeps near its achievable share under 10–50%
// random loss, while CUBIC gets essentially nothing.
func RunLossResilient(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(100, 30, scale)
	losses := []float64{0.10, 0.20, 0.30, 0.40, 0.50}

	rep := &Report{
		ID:     "loss50",
		Title:  "loss-resilient utility under FQ (100 Mbps, 30 ms): throughput vs heavy loss",
		Header: []string{"loss", "pcc_resilient", "cubic", "achievable", "pcc_frac_of_achievable"},
	}
	var ratioAt10 float64
	hlCfg := core.HeavyLossConfig(0.030)
	tputs, err := protoGrid(ctx, len(losses), []string{"pcc", "cubic"}, func(ts *TrialScratch, l int, proto string, _ int) float64 {
		path := PathSpec{RateMbps: 100, RTT: 0.030, Loss: losses[l], BufBytes: 375 * netem.KB, QueueKind: "fq", Seed: seed}
		if proto == "pcc" {
			r := ts.Runner(proto, path)
			pf := r.AddFlow(FlowSpec{Proto: proto, PCCConfig: &hlCfg})
			r.Run(dur)
			return pf.GoodputMbps(dur)
		}
		return runSingle(ts, path, proto, dur)
	})
	if err != nil {
		return nil, err
	}
	for li, loss := range losses {
		pccT, cubicT := tputs[li][0], tputs[li][1]
		ach := 100 * (1 - loss)
		rep.Rows = append(rep.Rows, []string{
			f2(loss), f2(pccT), f2(cubicT), f2(ach), f3(pccT / ach),
		})
		if loss == 0.10 && cubicT > 0 {
			ratioAt10 = pccT / cubicT
		}
	}
	if ratioAt10 > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("at 10%% loss: PCC/CUBIC = %.0fx (paper: 151x)", ratioAt10))
	}
	return rep, nil
}
