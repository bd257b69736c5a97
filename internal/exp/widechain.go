package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
)

// RunWideChain ("widechain") is the programmatic N-hop × M-flow parking-lot
// generator: one long flow crossing every hop of a chain of 100 Mbps
// bottlenecks while each hop carries its own cross flows, with real reverse
// links (1 Gbps, uncongested) so ACKs traverse the chain too. It serves two
// purposes. Scientifically it extends the parklot robustness probe
// (§2.2–§2.3: utility-driven control with no network knowledge) to much
// deeper chains — the first slice of the 100–1000-node WAN scenarios on the
// roadmap. Mechanically it is the showcase workload for the sharded
// conservative engine: per-hop delays are heterogeneous (4.0–5.2 ms), so the
// node graph partitions into positive-delay-separated shards with ≥4 ms
// lookahead, cross-shard traffic dominates, and one trial can use several
// cores (TopologySpec.Shards, wired to pccbench -shards).
// Reports are byte-identical at every shard count — the shard axis is
// deliberately absent from the rows — which determinism_test.go asserts.
func RunWideChain(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(40, 10, scale)
	nHops := 4 + int(8*scale+0.5)
	const perHop = 2
	protos := []string{"pcc", "cubic"}
	shards := Shards()

	rep := &Report{
		ID: "widechain",
		Title: fmt.Sprintf("wide chain (%d × 100 Mbps hops in series, %d cross flows per hop, ACKs on real reverse links)",
			nHops, perHop),
		Header: []string{"proto", "long_Mbps", "cross_mean_Mbps", "long/cross", "jain"},
	}
	type wcResult struct {
		row   []string
		notes []string
	}
	results, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) wcResult {
		proto := protos[i]
		r, long, cross := wideChainTrial(ts, nHops, perHop, proto, dur, TrialSeed(seed, i), shards)
		longT := long.WindowMbps(0.2*dur, dur)
		crossT := ts.f64[:0]
		for _, c := range cross {
			crossT = append(crossT, c.WindowMbps(0.2*dur, dur))
		}
		ratio := 0.0
		if m := metrics.Mean(crossT); m > 0 {
			ratio = longT / m
		}
		res := wcResult{row: []string{
			proto,
			f1(longT), f1(metrics.Mean(crossT)), f2(ratio),
			f3(metrics.JainIndex(append([]float64{longT}, crossT...))),
		}}
		ts.f64 = crossT
		if proto == "pcc" {
			res.notes = r.LinkStatsNotes()
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
		"long flow crosses every hop against 2 per-hop cross flows; its share shrinks with depth (it pays the sum of per-hop congestion), the parklot limitation at WAN scale",
		"reverse links are 10x the forward rate, so ACK paths add propagation but no queueing")
	return rep, nil
}

// RunWideChainTrial runs one benchmark-shaped widechain trial (12 hops, PCC,
// 12 s) at the given shard ceiling and returns the long flow's steady-window
// goodput in Mbps. BenchmarkWideChain calls it at shards 1 vs NumCPU to
// measure intra-trial speedup; the returned figure must not depend on
// shards.
func RunWideChainTrial(ts *TrialScratch, shards int, seed int64) float64 {
	const dur = 12.0
	_, long, _ := wideChainTrial(ts, 12, 2, "pcc", dur, seed, shards)
	return long.WindowMbps(0.2*dur, dur)
}

// wideChainTrial builds and runs one wide-chain simulation: nHops forward
// bottlenecks n<i>→n<i+1> with matching uncongested reverse links, one long
// flow over the whole chain, perHop cross flows per hop with staggered
// starts. Per-hop propagation delays cycle through 4.0–5.2 ms so no two
// causally independent cross-shard events share a timestamp (the float-tie
// caveat of the deterministic shard merge) and the shard lookahead is 4 ms.
func wideChainTrial(ts *TrialScratch, nHops, perHop int, proto string, dur float64, seed int64, shards int) (*Runner, *Flow, []*Flow) {
	const (
		rateMbps = 100
		revMbps  = 1000
		accessD  = 0.002 // per-flow access delay, seconds
	)
	hopDelay := func(i int) float64 { return 0.004 + 0.0003*float64(i%5) }
	spec := TopologySpec{Seed: seed, Shards: shards}
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
	r := ts.TopologyRunner(fmt.Sprintf("%d/%d/%s/%d", nHops, perHop, proto, shards), spec)

	longFwd := []netem.HopSpec{netem.DelayHop(accessD)}
	for i := 0; i < nHops; i++ {
		longFwd = append(longFwd, netem.LinkHop(fwdName(i)))
	}
	longRev := make([]netem.HopSpec, 0, nHops+1)
	for i := nHops - 1; i >= 0; i-- {
		longRev = append(longRev, netem.LinkHop(revName(i)))
	}
	longRev = append(longRev, netem.DelayHop(accessD))
	long := r.AddFlow(FlowSpec{Proto: proto, FwdRoute: longFwd, RevRoute: longRev, Bucket: 1})

	cross := make([]*Flow, 0, nHops*perHop)
	for i := 0; i < nHops; i++ {
		for j := 0; j < perHop; j++ {
			k := i*perHop + j
			cross = append(cross, r.AddFlow(FlowSpec{
				Proto:    proto,
				FwdRoute: []netem.HopSpec{netem.DelayHop(accessD), netem.LinkHop(fwdName(i))},
				RevRoute: []netem.HopSpec{netem.LinkHop(revName(i)), netem.DelayHop(accessD)},
				// Staggered, hop-unique starts: shards come up out of phase
				// and no two flows' timers align exactly.
				StartAt: 0.05 + 0.013*float64(k),
				Bucket:  1,
			}))
		}
	}

	r.Run(dur)
	return r, long, cross
}

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }
func fwdName(i int) string  { return fmt.Sprintf("f%d", i) }
func revName(i int) string  { return fmt.Sprintf("b%d", i) }
