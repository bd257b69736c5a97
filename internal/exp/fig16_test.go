package exp

import (
	"context"
	"testing"

	"pcc/internal/core"
	"pcc/internal/metrics"
	"pcc/internal/netem"
)

// fullTradeoffTrial is tradeoffTrial as it was before the stop rule: one
// run to B's join plus 160 s, then the two numbers read from B's series. It
// is the reference the stopped trial is checked against.
func fullTradeoffTrial(ts *TrialScratch, proto string, pcfg *core.Config, seed int64) (float64, float64) {
	const joinAt = 20.0
	r := ts.Runner("full/"+proto, PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 375 * netem.KB, Seed: seed})
	r.AddFlow(FlowSpec{Proto: proto, PCCConfig: pcfg, StartAt: 0, Bucket: 1})
	b := r.AddFlow(FlowSpec{Proto: proto, PCCConfig: pcfg, StartAt: joinAt, Bucket: 1})
	r.Run(joinAt + 160)

	series := b.SeriesMbps()
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

// TestFig16HorizonMatchesFullRun runs every fig16 config at seed 7 (seed 42
// is pinned by the golden digests) both ways through the pool: each
// stopped trial must return bit-for-bit the full run's numbers, and every
// config that converges early enough must have stopped before 180 s.
func TestFig16HorizonMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 15 fig16 trials twice, once to 180 s")
	}
	const seed = 7
	cfgs := tradeoffConfigs()
	type outcome struct {
		conv, std, fullConv, fullStd, clock float64
	}
	got, err := RunPointsScratchCtx(context.Background(), len(cfgs), func(i int, ts *TrialScratch) outcome {
		c := cfgs[i]
		var o outcome
		o.conv, o.std = tradeoffTrial(ts, c.proto, c.pcc, seed)
		o.clock = ts.runners[runnerKey{key: c.proto}].Eng.Now()
		o.fullConv, o.fullStd = fullTradeoffTrial(ts, c.proto, c.pcc, seed)
		return o
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for i, o := range got {
		label := cfgs[i].label
		if o.conv != o.fullConv || o.std != o.fullStd {
			t.Errorf("%s: stopped trial (%v, %v), full run (%v, %v)", label, o.conv, o.std, o.fullConv, o.fullStd)
		}
		if o.fullConv >= 0 && o.fullConv+tradeoffWindow < tradeoffSpan {
			if o.clock >= tradeoffJoin+tradeoffSpan {
				t.Errorf("%s: converged at %v s but ran to %v s", label, o.fullConv, o.clock)
			}
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("no config converged early enough to cut its run: the test checks nothing")
	}
}

// TestFig16StopRule drives tradeoffNext over synthetic series of B's
// seconds. The trial sees at time t only the seconds below t, up to the last
// one in which B received anything, as a receiver's bucket series does. The
// rule must stop where expected and the numbers read there must equal those
// of the whole series.
func TestFig16StopRule(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	early := fill(tradeoffSpan, 50)
	early[0], early[1], early[2] = 5, 90, 20 // converges at 3
	late := fill(tradeoffSpan, 50)
	for i := 0; i < 110; i++ {
		late[i] = 10 // converges at 110
	}
	silent := append([]float64(nil), early...)
	silent[3+tradeoffWindow-1] = 0 // B silent in the last second of its window
	never := fill(tradeoffSpan, 10)
	for _, tc := range []struct {
		name   string
		series []float64
		stopAt int
	}{
		{"early convergence", early, 3 + tradeoffWindow},
		{"convergence after 100 s", late, tradeoffSpan},
		{"silent last second", silent, tradeoffSpan},
		{"no convergence", never, tradeoffSpan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := func(at int) []float64 {
				s := tc.series[:min(at, len(tc.series))]
				for len(s) > 0 && s[len(s)-1] == 0 {
					s = s[:len(s)-1]
				}
				return s
			}
			at := tradeoffHold + 1
			for next := at; next > 0; next = tradeoffNext(seen(at), at) {
				at = next
			}
			if at != tc.stopAt {
				t.Errorf("stopped at %d s, want %d s", at, tc.stopAt)
			}
			gc, gs := tradeoffResult(seen(at))
			wc, ws := tradeoffResult(tc.series)
			if gc != wc || gs != ws {
				t.Errorf("stopped at %d s: (%v, %v), whole series (%v, %v)", at, gc, gs, wc, ws)
			}
		})
	}
}
