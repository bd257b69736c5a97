package exp

import (
	"context"
	"fmt"

	"pcc/internal/core"
	"pcc/internal/netem"
)

// RunFig17 reproduces Fig. 17 (§4.4.1): the power (throughput/delay) of two
// interactive flows on a 40 Mbps / 20 ms link under the four combinations
// of end-host protocol {TCP CUBIC, PCC with the latency utility} and
// per-flow-fair-queueing AQM {CoDel, bufferbloat-deep FIFO}. The paper's
// point: TCP needs CoDel to get good power (10.5x difference between
// AQMs), while PCC keeps its own queue tiny so both AQMs give the same —
// and higher — power.
func RunFig17(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(120, 40, scale)

	type cell struct {
		label string
		proto string
		queue string
	}
	cells := []cell{
		{"TCP+CoDel+FQ", "cubic", "fqcodel"},
		{"TCP+Bufferbloat+FQ", "cubic", "fq"},
		{"PCC+CoDel+FQ", "pcc", "fqcodel"},
		{"PCC+Bufferbloat+FQ", "pcc", "fq"},
	}

	rep := &Report{
		ID:     "fig17",
		Title:  "power (Mbps per second of delay) under AQM x protocol, 40 Mbps / 20 ms, FQ, 2 flows",
		Header: []string{"combination", "tput_Mbps", "mean_RTT_ms", "power"},
	}
	type cellResult struct{ tput, rtt float64 }
	cellOut, err := RunPointsScratchCtx(ctx, len(cells), func(i int, ts *TrialScratch) cellResult {
		c := cells[i]
		// Bufferbloat = very deep per-flow FIFO (2 MB); CoDel children get
		// the same physical cap but drain the standing queue.
		r := ts.Runner(c.label, PathSpec{RateMbps: 40, RTT: 0.020, BufBytes: 2000 * netem.KB, QueueKind: c.queue, Seed: seed})
		f1s := r.AddFlow(flowForPower(c.proto))
		f2s := r.AddFlow(flowForPower(c.proto))
		r.Run(dur)

		var res cellResult
		for _, f := range []*Flow{f1s, f2s} {
			res.tput += f.GoodputMbps(dur)
			res.rtt += f.MeanRTT()
		}
		res.rtt /= 2
		return res
	})
	if err != nil {
		return nil, err
	}
	powers := map[string]float64{}
	for i, c := range cells {
		tput, rtt := cellOut[i].tput, cellOut[i].rtt
		power := 0.0
		if rtt > 0 {
			power = tput / rtt
		}
		powers[c.label] = power
		rep.Rows = append(rep.Rows, []string{c.label, f2(tput), f1(rtt * 1e3), fmt.Sprintf("%.0f", power)})
	}
	if powers["PCC+CoDel+FQ"] > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"TCP power ratio CoDel/Bufferbloat = %.1fx (paper: 10.5x); PCC ratio = %.2fx (paper: ~1.0x); PCC+Bufferbloat / TCP+CoDel = %.2fx (paper: 1.55x)",
			safeDiv(powers["TCP+CoDel+FQ"], powers["TCP+Bufferbloat+FQ"]),
			safeDiv(powers["PCC+CoDel+FQ"], powers["PCC+Bufferbloat+FQ"]),
			safeDiv(powers["PCC+Bufferbloat+FQ"], powers["TCP+CoDel+FQ"])))
	}
	return rep, nil
}

// flowForPower builds the flow spec for one interactive flow of the Fig. 17
// cell: PCC uses the §4.4.1 latency utility.
func flowForPower(proto string) FlowSpec {
	spec := FlowSpec{Proto: proto, Bucket: 1}
	if proto == "pcc" {
		cfg := core.InteractiveConfig(0.020)
		spec.PCCConfig = &cfg
	}
	return spec
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
