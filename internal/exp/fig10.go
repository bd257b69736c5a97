package exp

import (
	"context"
	"fmt"

	"pcc/internal/netem"
)

// RunFig10 reproduces Fig. 10 (§4.1.8): TCP incast. N senders
// simultaneously send one flow of {64,128,256} KB each to a single receiver
// across a 1 Gbps / 1 ms fan-in with a shallow (64 KB) switch buffer;
// goodput is total unique bytes over the time until the last flow
// completes. Synchronized window bursts drive TCP into RTO-bound collapse
// (min RTO 200 ms); PCC's paced, rate-targeted transmission keeps goodput
// at a large fraction of capacity.
func RunFig10(ctx context.Context, scale float64, seed int64) (*Report, error) {
	scale = clampScale(scale)
	trials := int(5 * scale)
	if trials < 1 {
		trials = 1
	}
	senderCounts := []int{2, 5, 10, 15, 20, 25, 30, 33}
	sizesKB := []int{64, 128, 256}
	protos := []string{"pcc", "newreno"}

	rep := &Report{
		ID:     "fig10",
		Title:  "incast (1 Gbps, 1 ms RTT, 64 KB switch buffer): goodput vs senders",
		Header: []string{"senders", "data_KB", "pcc_Mbps", "tcp_Mbps", "pcc/tcp"},
	}
	// Flatten (size, senders, proto, trial) into one job list; every incast
	// trial is an independent simulation.
	type incastJob struct {
		sizeKB, n, trial int
		proto            string
	}
	var jobs []incastJob
	for _, sizeKB := range sizesKB {
		for _, n := range senderCounts {
			for _, proto := range protos {
				for trial := 0; trial < trials; trial++ {
					jobs = append(jobs, incastJob{sizeKB: sizeKB, n: n, trial: trial, proto: proto})
				}
			}
		}
	}
	// Largest shape first: the 33-sender incast builds each worker's arena
	// (flow pool, windows, packet chunks) to the sweep's high-water mark, so
	// every smaller point reuses it warm instead of growing step by step.
	order := descendingBy(len(jobs), func(i int) int { return jobs[i].n })
	goodputs := make([]float64, len(jobs))
	err := RunTrialsScratchCtx(ctx, len(jobs), func(k int, ts *TrialScratch) {
		i := order[k]
		j := jobs[i]
		goodputs[i] = incastGoodput(ts, j.proto, j.n, j.sizeKB, seed+int64(j.trial)*131)
	})
	if err != nil {
		return nil, err
	}
	ji := 0
	for _, sizeKB := range sizesKB {
		for _, n := range senderCounts {
			results := map[string]float64{}
			for _, proto := range protos {
				var sum float64
				for trial := 0; trial < trials; trial++ {
					sum += goodputs[ji]
					ji++
				}
				results[proto] = sum / float64(trials)
			}
			ratio := 0.0
			if results["newreno"] > 0 {
				ratio = results["pcc"] / results["newreno"]
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", sizeKB),
				f1(results["pcc"]), f1(results["newreno"]), f2(ratio),
			})
		}
	}
	rep.Notes = append(rep.Notes, "paper: with >=10 senders PCC sustains 60-80% of max goodput, 7-8x TCP")
	return rep, nil
}

// incastGoodput runs one incast trial and returns aggregate goodput in
// Mbps (total unique bytes / time to last completion).
func incastGoodput(ts *TrialScratch, proto string, senders, sizeKB int, seed int64) float64 {
	r := ts.Runner(proto, PathSpec{RateMbps: 1000, RTT: 0.001, BufBytes: 64 * netem.KB, Seed: seed})
	flows := make([]*Flow, senders)
	for i := range flows {
		flows[i] = r.AddFlow(FlowSpec{Proto: proto, FlowKB: sizeKB, StartAt: 0})
	}
	// Generous deadline: collapse scenarios can take many RTOs.
	r.Run(60)
	var last float64
	var bytes int64
	for _, f := range flows {
		bytes += f.Recv.UniqueBytes()
		if f.DoneAt > last {
			last = f.DoneAt
		}
	}
	if last <= 0 {
		last = 60 // some flow never finished
	}
	return netem.ToMbps(float64(bytes) / last)
}
