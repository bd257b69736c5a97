package exp

import (
	"context"
	"fmt"

	"pcc/internal/metrics"
	"pcc/internal/netem"
	"pcc/internal/workload"
)

// RunMixMTU ("mixmtu") exercises the size-accurate byte accounting end to
// end: flows with 512-, 1400- and 9000-byte packets share a two-hop path.
// A jumbo-frame bulk flow (9000 B), a standard-MTU flow (1400 B, the real
// UDP transport's payload budget) and two small-packet interactive flows
// (512 B) all cross both links, while Poisson 512-byte mice churn the
// bottleneck. Every layer — pacing clock, link serialization, queue
// occupancy, and the PCC monitor's per-MI byte ledger — sees each packet's
// true wire size; the report closes the loop with per-link byte
// conservation (offered = delivered + wire-lost + queue-dropped + queued +
// serializing, in bytes) at every hop, which packet counts alone could not
// certify once sizes mix.
func RunMixMTU(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(90, 20, scale)
	protos := []string{"pcc", "cubic", "newreno"}

	rep := &Report{
		ID:     "mixmtu",
		Title:  "mixed packet sizes (9000/1400/512 B flows on a two-hop 100→50 Mbps path)",
		Header: []string{"proto", "jumbo_Mbps", "std_Mbps", "small1_Mbps", "small2_Mbps", "jain", "conserved"},
	}
	rows, err := RunPointsScratchCtx(ctx, len(protos), func(i int, ts *TrialScratch) trialRow {
		proto := protos[i]
		r, flows := mixMTUTrial(ts, proto, dur, TrialSeed(seed, i))
		tput := make([]float64, len(flows))
		for j, f := range flows {
			tput[j] = f.WindowMbps(0.2*dur, dur)
		}
		conserved := true
		for _, s := range r.Topo.Stats() {
			if !s.Conserved() {
				conserved = false
			}
		}
		tr := trialRow{row: []string{
			proto,
			f1(tput[0]), f1(tput[1]), f1(tput[2]), f1(tput[3]),
			f3(metrics.JainIndex(tput)),
			fmt.Sprintf("%v", conserved),
		}}
		if proto == "pcc" {
			tr.notes = byteConservationNotes(r)
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	rep.addRows(rows)
	rep.Notes = append(rep.Notes,
		"flows: one 9000 B jumbo bulk, one 1400 B standard, two 512 B interactive, plus Poisson 512 B mice on both hops",
		"conserved: per-link byte ledger balances at every hop (offered = delivered + wire_lost + queue_dropped + queued + serializing)")
	return rep, nil
}

// mixMTUTrial builds and runs one mixed-MTU simulation over a two-hop path
// (100 Mbps feeder into a 50 Mbps bottleneck) and returns the runner plus
// the four long-lived flows [jumbo, standard, small1, small2].
func mixMTUTrial(ts *TrialScratch, proto string, dur float64, seed int64) (*Runner, []*Flow) {
	const (
		linkDel = 0.005 // per-hop propagation, seconds
		accessD = 0.002 // per-flow access delay, seconds
	)
	r := ts.TopologyRunner(proto, TopologySpec{
		Seed: seed,
		Links: []LinkSpec{
			{Name: "feed", From: "A", To: "M", RateMbps: 100, Delay: linkDel, BufBytes: 250 * netem.KB},
			{Name: "bn", From: "M", To: "B", RateMbps: 50, Delay: linkDel, BufBytes: 125 * netem.KB},
		},
	})

	fwd := []netem.HopSpec{netem.DelayHop(accessD), netem.LinkHop("feed"), netem.LinkHop("bn")}
	rev := []netem.HopSpec{netem.DelayHop(accessD + 2*linkDel)}
	flows := make([]*Flow, 0, 4)
	for _, size := range []int{9000, 1400, 512, 512} {
		flows = append(flows, r.AddFlow(FlowSpec{
			Proto:      proto,
			PacketSize: size,
			FwdRoute:   fwd, RevRoute: rev,
			Bucket: 1,
		}))
	}

	// Poisson 512-byte mice across both hops: short interactive transfers
	// (bounded-Pareto sizes) riding the same path, so the queues see a
	// constant churn of sub-MSS packets between the long flows' frames.
	arrRNG := r.NextRand()
	sizeRNG := r.NextRand()
	workload.PoissonArrivals(r.Eng, arrRNG, 4, dur, func(int) {
		r.AddFlow(FlowSpec{
			Proto:      "newreno",
			PacketSize: 512,
			FwdRoute:   fwd, RevRoute: rev,
			FlowKB:  workload.ParetoFlowKB(sizeRNG, 1.2, 10, 500),
			StartAt: r.Eng.Now(),
		})
	})

	r.Run(dur)
	return r, flows
}

// byteConservationNotes renders the per-link byte ledger as report notes
// (AddLink order, deterministic).
func byteConservationNotes(r *Runner) []string {
	var out []string
	for _, s := range r.Topo.Stats() {
		out = append(out, fmt.Sprintf(
			"link %s bytes: offered=%d delivered=%d wire_lost=%d queue_dropped=%d queued=%d serializing=%d conserved=%v",
			s.Name, s.OfferedBytes, s.DeliveredBytes, s.WireLostBytes,
			s.QueueDroppedBytes, s.QueuedBytes, s.TxBytes, s.Conserved()))
	}
	return out
}
