package exp

import (
	"context"
	"fmt"

	"pcc/internal/netem"
)

// RunRevPath ("revpath") exercises what the hardwired dumbbell could never
// express: a congested acknowledgment path. Two opposing flows share an
// asymmetric link pair (100 Mbps forward, 10 Mbps back — the classic
// ADSL-style shape): flow A→B sends data on the fat link and its ACKs
// return over the thin one, while flow B→A's data saturates that same thin
// link and its ACKs ride the fat one. Each flow's data therefore queues
// behind the other flow's ACK stream in the same drop-tail buffer. The
// driver measures every flow solo and then duplex: the thin-link flow loses
// the capacity the opposing ACK stream consumes (~3 Mbps at full forward
// rate), and the fat-link flow is depressed by ACK queueing delay and ACK
// drops on the saturated reverse bottleneck.
func RunRevPath(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	dur := scaledDur(90, 30, scale)
	protos := []string{"pcc", "cubic", "newreno"}

	rep := &Report{
		ID:     "revpath",
		Title:  "congested reverse path (100 Mbps / 10 Mbps asymmetric pair, data vs opposing ACKs)",
		Header: []string{"proto", "fwd_solo", "fwd_duplex", "rev_solo", "rev_duplex", "fwd_ratio", "rev_ratio"},
	}
	type rpResult struct {
		fwd, rev float64
		notes    []string
	}
	// Three runs per protocol: forward flow alone, reverse flow alone, both.
	results, err := RunPointsScratchCtx(ctx, len(protos)*3, func(i int, ts *TrialScratch) rpResult {
		proto := protos[i/3]
		mode := i % 3 // 0: fwd solo, 1: rev solo, 2: duplex
		// Keyed by (proto, mode): each mode has a different flow/route
		// structure on the same link pair.
		r := revPathRunner(ts, fmt.Sprintf("%s/%d", proto, mode), TrialSeed(seed, i))
		var fwd, rev *Flow
		if mode != 1 {
			fwd = r.AddFlow(FlowSpec{
				Proto:    proto,
				FwdRoute: []netem.HopSpec{netem.LinkHop("fat")},
				RevRoute: []netem.HopSpec{netem.LinkHop("thin")},
				Bucket:   1,
			})
		}
		if mode != 0 {
			rev = r.AddFlow(FlowSpec{
				Proto:    proto,
				FwdRoute: []netem.HopSpec{netem.LinkHop("thin")},
				RevRoute: []netem.HopSpec{netem.LinkHop("fat")},
				Bucket:   1,
			})
		}
		r.Run(dur)
		var res rpResult
		if fwd != nil {
			res.fwd = fwd.WindowMbps(0.2*dur, dur)
		}
		if rev != nil {
			res.rev = rev.WindowMbps(0.2*dur, dur)
		}
		if proto == "pcc" && mode == 2 {
			res.notes = r.LinkStatsNotes()
		}
		return res
	})
	if err != nil {
		return nil, err
	}
	for pi, proto := range protos {
		fwdSolo := results[pi*3].fwd
		revSolo := results[pi*3+1].rev
		fwdDup := results[pi*3+2].fwd
		revDup := results[pi*3+2].rev
		rep.Rows = append(rep.Rows, []string{
			proto, f1(fwdSolo), f1(fwdDup), f1(revSolo), f1(revDup),
			ratioStr(fwdDup, fwdSolo), ratioStr(revDup, revSolo),
		})
		rep.Notes = append(rep.Notes, results[pi*3+2].notes...)
	}
	rep.Notes = append(rep.Notes,
		"solo: the flow runs alone (its ACK link is idle); duplex: both directions active, data shares a queue with opposing ACKs",
		"rev_ratio < 1: the thin-link flow cedes the bandwidth the opposing ACK stream occupies; fwd_ratio < 1: ACK queueing/drops on the saturated thin link throttle the fat-link flow")
	return rep, nil
}

// revPathRunner builds the asymmetric two-node topology: a 100 Mbps "fat"
// link A→B and a 10 Mbps "thin" link B→A, 10 ms propagation each way.
func revPathRunner(ts *TrialScratch, key string, seed int64) *Runner {
	return ts.TopologyRunner(key, TopologySpec{
		Seed: seed,
		Links: []LinkSpec{
			{Name: "fat", From: "A", To: "B", RateMbps: 100, Delay: 0.010, BufBytes: 250 * netem.KB},
			{Name: "thin", From: "B", To: "A", RateMbps: 10, Delay: 0.010, BufBytes: 32 * netem.KB},
		},
	})
}

// ratioStr renders a/b ("-" when undefined).
func ratioStr(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return f2(a / b)
}
