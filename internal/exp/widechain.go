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
// links (1 Gbps, uncongested) so ACKs traverse the chain too. It extends the
// parklot robustness probe (§2.2–§2.3: utility-driven control with no
// network knowledge) to much deeper chains — the first slice of the
// 100–1000-node WAN scenarios on the roadmap. Per-hop delays are
// heterogeneous (4.0–5.2 ms), so no two hops' propagation trains line up.
func RunWideChain(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(40, 10, scale)
	nHops := 4 + int(float64(8*scale)+0.5)
	const perHop = 2
	protos := []string{"pcc", "cubic"}

	rep := &Report{
		ID: "widechain",
		Title: fmt.Sprintf("wide chain (%d × 100 Mbps hops in series, %d cross flows per hop, ACKs on real reverse links)",
			nHops, perHop),
		Header: []string{"proto", "long_Mbps", "cross_mean_Mbps", "long/cross", "jain"},
	}
	cs := chainSpec{exp: "widechain", nHops: nHops, perHop: perHop, bucket: 1}
	rows, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) trialRow {
		proto := protos[i]
		r, long, cross := chainTrial(ts, cs, proto, dur, TrialSeed(seed, i))
		longT := long.WindowMbps(0.2*dur, dur)
		crossT := ts.f64[:0]
		for _, c := range cross {
			crossT = append(crossT, c.WindowMbps(0.2*dur, dur))
		}
		ratio := 0.0
		if m := metrics.Mean(crossT); m > 0 {
			ratio = longT / m
		}
		tr := trialRow{row: []string{
			proto,
			f1(longT), f1(metrics.Mean(crossT)), f2(ratio),
			f3(metrics.JainIndex(append([]float64{longT}, crossT...))),
		}}
		ts.f64 = crossT
		if proto == "pcc" {
			tr.notes = r.LinkStatsNotes()
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	rep.addRows(rows)
	rep.Notes = append(rep.Notes,
		"long flow crosses every hop against 2 per-hop cross flows; its share shrinks with depth (it pays the sum of per-hop congestion), the parklot limitation at WAN scale",
		"reverse links are 10x the forward rate, so ACK paths add propagation but no queueing")
	return rep, nil
}

// RunWideChainTrial runs one benchmark-shaped widechain trial (12 hops, PCC,
// 12 s) and returns the long flow's steady-window goodput in Mbps. shards is
// ignored; pinned by bench/ until ROADMAP item 1's [benchmark] PR.
func RunWideChainTrial(ts *TrialScratch, shards int, seed int64) float64 {
	const dur = 12.0
	_, long, _ := chainTrial(ts, chainSpec{exp: "widechain", nHops: 12, perHop: 2, bucket: 1}, "pcc", dur, seed)
	return long.WindowMbps(0.2*dur, dur)
}

// chainSpec is the shape of one chainTrial.
type chainSpec struct {
	exp           string // the experiment the trial is stamped with
	nHops, perHop int    // hops in the chain, cross flows per hop
	bucket        float64
	faults        *netem.FaultSchedule
}

// chainTrial stamps, builds and runs one chain trial: nHops 100 Mbps forward
// bottlenecks f<i> n<i>→n<i+1> with matching uncongested 1 Gbps reverse
// links b<i>, so ACKs traverse the chain too; one long flow over the whole
// chain; perHop cross flows per hop with staggered, hop-unique starts (no
// two flows' timers align exactly); and the spec's fault schedule. Per-hop
// propagation delays cycle through 4.0–5.2 ms, and every flow keeps a
// goodput series of cs.bucket seconds. It returns the runner, the long flow
// and the cross flows in hop order.
func chainTrial(ts *TrialScratch, cs chainSpec, proto string, dur float64, seed int64) (*Runner, *Flow, []*Flow) {
	ts.Stamp(cs.exp, proto, seed)
	const (
		rateMbps = 100
		revMbps  = 1000
		accessD  = 0.002 // per-flow access delay, seconds
	)
	spec := TopologySpec{Seed: seed, Faults: cs.faults}
	longFwd := []netem.HopSpec{netem.DelayHop(accessD)}
	longRev := make([]netem.HopSpec, cs.nHops+1)
	longRev[cs.nHops] = netem.DelayHop(accessD)
	for i := 0; i < cs.nHops; i++ {
		delay := 0.004 + float64(0.0003*float64(i%5))
		spec.Links = append(spec.Links,
			LinkSpec{
				Name: fwdName(i), From: nodeName(i), To: nodeName(i + 1),
				RateMbps: rateMbps, Delay: delay, BufBytes: 250 * netem.KB,
			},
			LinkSpec{
				Name: revName(i), From: nodeName(i + 1), To: nodeName(i),
				RateMbps: revMbps, Delay: delay, BufBytes: 250 * netem.KB,
			})
		longFwd = append(longFwd, netem.LinkHop(fwdName(i)))
		longRev[cs.nHops-1-i] = netem.LinkHop(revName(i))
	}
	r := ts.TopologyRunner(fmt.Sprintf("%s/%d/%d/%s", cs.exp, cs.nHops, cs.perHop, proto), spec)
	long := r.AddFlow(FlowSpec{Proto: proto, FwdRoute: longFwd, RevRoute: longRev, Bucket: cs.bucket})

	cross := make([]*Flow, 0, cs.nHops*cs.perHop)
	for k := 0; k < cs.nHops*cs.perHop; k++ {
		hop := k / cs.perHop
		cross = append(cross, r.AddFlow(FlowSpec{
			Proto:    proto,
			FwdRoute: []netem.HopSpec{netem.DelayHop(accessD), netem.LinkHop(fwdName(hop))},
			RevRoute: []netem.HopSpec{netem.LinkHop(revName(hop)), netem.DelayHop(accessD)},
			StartAt:  0.05 + float64(0.013*float64(k)),
			Bucket:   cs.bucket,
		}))
	}

	r.Run(dur)
	return r, long, cross
}

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }
func fwdName(i int) string  { return fmt.Sprintf("f%d", i) }
func revName(i int) string  { return fmt.Sprintf("b%d", i) }
