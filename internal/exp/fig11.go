package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
	"pcc/internal/sim"
)

// RunFig11 reproduces Fig. 11 (§4.1.7): a rapidly changing network whose
// bandwidth (10–100 Mbps), RTT (10–100 ms) and loss (0–1%) are all redrawn
// every 5 s. The paper reports PCC at 83% of optimal over 500 s, 14x CUBIC
// and 5.6x Illinois.
func RunFig11(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(500, 100, scale)
	protos := []string{"pcc", "cubic", "illinois"}
	spec := netem.VaryingSpec{
		Period:  5,
		RateMin: netem.Mbps(10), RateMax: netem.Mbps(100),
		RTTMin: 0.010, RTTMax: 0.100,
		LossMin: 0, LossMax: 0.01,
	}

	type fig11Trial struct {
		goodput float64
		trace   []netem.Sample
	}
	trialOut, err := RunPointsScratchCtx(ctx, len(protos), func(pi int, ts *TrialScratch) fig11Trial {
		proto := protos[pi]
		// Same seed → identical sequence of drawn network conditions for
		// every protocol.
		r := ts.Runner(proto, PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 150 * netem.KB, Seed: seed})
		f := r.AddFlow(FlowSpec{Proto: proto})
		// Derive the variation stream from the experiment seed alone so
		// every protocol faces the identical sequence of conditions.
		varyRng := sim.NewSeeds(seed ^ 0x5eed).NextRand()
		fwd, rev := r.Topo.FlowRoutes(f.ID)
		trace := netem.StartVarying(r.Eng, r.bottleneck, fwd, rev, spec, varyRng, dur)
		r.Run(dur)
		return fig11Trial{goodput: f.GoodputMbps(dur), trace: *trace}
	})
	if err != nil {
		return nil, err
	}

	// The optimum: the piecewise-constant trace expanded to 1 Hz.
	trace := trialOut[0].trace
	opt := make([]float64, int(dur))
	ti := 0
	for s := range opt {
		for ti+1 < len(trace) && trace[ti+1].At <= float64(s) {
			ti++
		}
		opt[s] = netem.ToMbps(trace[ti].Rate) * (1 - trace[ti].Loss)
	}
	optMean := metrics.Mean(opt)

	rep := &Report{
		ID:     "fig11",
		Title:  fmt.Sprintf("rapidly changing network over %.0f s (bw 10-100 Mbps, RTT 10-100 ms, loss 0-1%%, redrawn every 5 s)", dur),
		Header: []string{"proto", "throughput_Mbps", "frac_of_optimal", "pcc_ratio"},
	}
	pccT := trialOut[0].goodput
	for pi, proto := range protos {
		t := trialOut[pi].goodput
		ratio := "-"
		if proto != "pcc" && t > 0 {
			ratio = f1(pccT / t)
		}
		rep.Rows = append(rep.Rows, []string{proto, f2(t), f2(t / optMean), ratio})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("mean available bandwidth %.1f Mbps; paper: PCC 83%% of optimal, 14x CUBIC, 5.6x Illinois", optMean))
	return rep, nil
}
