package exp

import (
	"slices"
	"strings"
	"testing"

	"pcc/internal/netem"
)

// Shape tests for the routed-topology experiments: the claims EXPERIMENTS.md
// records, at reduced scale.

func TestShapeReversePathCongestion(t *testing.T) {
	t.Parallel()
	// revpath core claim: on the asymmetric pair, the thin-link flow is
	// measurably depressed by the opposing flow's ACK stream, and PCC holds
	// the fat link far better than loss-based TCP under ACK congestion.
	dur := 30.0
	ts := new(TrialScratch)
	run := func(proto string, duplex bool) (fwdT, revT float64) {
		r := revPathRunner(ts, proto, 42)
		fwd := r.AddFlow(FlowSpec{
			Proto:    proto,
			FwdRoute: []netem.HopSpec{netem.LinkHop("fat")},
			RevRoute: []netem.HopSpec{netem.LinkHop("thin")},
			Bucket:   1,
		})
		var rev *Flow
		if duplex {
			rev = r.AddFlow(FlowSpec{
				Proto:    proto,
				FwdRoute: []netem.HopSpec{netem.LinkHop("thin")},
				RevRoute: []netem.HopSpec{netem.LinkHop("fat")},
				Bucket:   1,
			})
		}
		r.Run(dur)
		fwdT = fwd.WindowMbps(0.2*dur, dur)
		if rev != nil {
			revT = rev.WindowMbps(0.2*dur, dur)
		}
		return fwdT, revT
	}

	pccSolo, _ := run("pcc", false)
	pccFwd, pccRev := run("pcc", true)
	if pccSolo < 80 {
		t.Errorf("PCC solo on the fat link = %.1f Mbps, want > 80", pccSolo)
	}
	// The PCC ACK stream at ~100 Mbps forward rate occupies ~2.7 Mbps of
	// the 10 Mbps reverse link; the opposing flow must lose at least 1.5.
	if pccRev > 8.5 {
		t.Errorf("thin-link flow = %.1f Mbps against opposing ACKs, want measurable depression (< 8.5)", pccRev)
	}
	if pccRev < 2 {
		t.Errorf("thin-link flow = %.1f Mbps, collapsed beyond plausibility", pccRev)
	}

	cubicFwd, _ := run("cubic", true)
	if pccFwd < cubicFwd {
		t.Errorf("under ACK congestion PCC fwd %.1f < CUBIC fwd %.1f; paper-shape expects PCC to tolerate a congested reverse path better", pccFwd, cubicFwd)
	}
}

func TestShapeParkingLotSqueeze(t *testing.T) {
	t.Parallel()
	// parklot core claim: a flow crossing every bottleneck gets squeezed far
	// below its single-hop competitors (compounded per-hop loss), while the
	// network itself stays near-fully utilized at every hop.
	dur := 30.0
	r, long, cross := parkingLotTrial(new(TrialScratch), 3, "pcc", dur, 42)
	longT := long.WindowMbps(0.2*dur, dur)
	var crossSum float64
	for _, c := range cross {
		crossSum += c.WindowMbps(0.2*dur, dur)
	}
	if crossSum < 3*70 {
		t.Errorf("cross flows total %.1f Mbps over 3 hops, want > 210 (links near-full)", crossSum)
	}
	if longT > crossSum/3 {
		t.Errorf("long flow %.1f Mbps vs mean cross %.1f: multi-bottleneck squeeze not visible", longT, crossSum/3)
	}
	// Per-link accounting must hold after the run (drained queues excepted —
	// conservation here is delivered+lost+dropped+still-queued ≤ offered, so
	// just assert the counters moved and aggregate into the report notes).
	notes := r.LinkStatsNotes()
	if len(notes) != 3 {
		t.Fatalf("LinkStatsNotes = %d entries, want 3", len(notes))
	}
	for _, n := range notes {
		if !strings.Contains(n, "delivered=") {
			t.Errorf("malformed link stats note %q", n)
		}
	}
}

func TestTopologyRunnerRouteInference(t *testing.T) {
	t.Parallel()
	// RTT and capacity inference from routes: narrowest link bounds the
	// capacity; propagation sums into the RTT hint.
	r := NewTopologyRunner(TopologySpec{
		Seed: 1,
		Links: []LinkSpec{
			{Name: "a", From: "A", To: "B", RateMbps: 100, Delay: 0.004, BufBytes: 250 * netem.KB},
			{Name: "b", From: "B", To: "C", RateMbps: 20, Delay: 0.006, BufBytes: 250 * netem.KB},
		},
	})
	fwd := []netem.HopSpec{netem.DelayHop(0.002), netem.LinkHop("a"), netem.LinkHop("b")}
	rev := []netem.HopSpec{netem.DelayHop(0.008)}
	if got, want := r.RouteCapacity(fwd), netem.Mbps(20); got != want {
		t.Errorf("RouteCapacity = %v, want %v", got, want)
	}
	if got, want := r.routeRTT(fwd, rev), 0.020; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("routeRTT = %v, want %v", got, want)
	}
	f := r.AddFlow(FlowSpec{Proto: "pcc", FwdRoute: fwd, RevRoute: rev})
	r.Run(20)
	if got := f.GoodputMbps(20); got < 14 {
		t.Errorf("PCC on a 20 Mbps 2-hop route = %.1f Mbps, want > 14", got)
	}
}

func TestTopologyRunnerRequiresRoutes(t *testing.T) {
	t.Parallel()
	r := NewTopologyRunner(TopologySpec{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddFlow without routes on a topology runner must panic")
		}
	}()
	r.AddFlow(FlowSpec{Proto: "pcc"})
}

// TestDumbbellIsOneLinkTopology pins the translation NewRunner performs: a
// PathSpec with route-less flows is the one-link TopologySpec with the
// two-hop data route and one-hop lossy ACK route spelled out, bit for bit —
// goodput, bucket series and link accounting — per sender category, queue
// kind and loss setting (forward and reverse streams both drawing).
func TestDumbbellIsOneLinkTopology(t *testing.T) {
	t.Parallel()
	const rtt, dur = 0.020, 4.0
	for _, proto := range []string{"pcc", "cubic", "sabul"} {
		for _, queue := range []string{"droptail", "fq"} {
			for _, loss := range []float64{0, 0.005} {
				p := PathSpec{RateMbps: 20, RTT: rtt, Loss: loss, BufBytes: 40 * netem.KB, QueueKind: queue, Seed: 17}
				d := NewRunner(p)
				df := d.AddFlow(FlowSpec{Proto: proto, RevLoss: loss, Bucket: 0.5})
				d.Run(dur)

				g := NewTopologyRunner(TopologySpec{Seed: p.Seed, Links: []LinkSpec{{
					Name: netem.BottleneckLink, From: "src", To: "dst",
					RateMbps: p.RateMbps, Loss: loss, BufBytes: p.BufBytes, QueueKind: queue,
				}}})
				gf := g.AddFlow(FlowSpec{Proto: proto, Bucket: 0.5,
					FwdRoute: []netem.HopSpec{netem.DelayHop(rtt / 2), netem.LinkHop(netem.BottleneckLink)},
					RevRoute: []netem.HopSpec{netem.LossyDelayHop(rtt/2, loss)},
				})
				g.Run(dur)

				if a, b := df.GoodputMbps(dur), gf.GoodputMbps(dur); a != b || a <= 0 {
					t.Errorf("%s/%s/loss %v: dumbbell goodput %v, one-link topology %v", proto, queue, loss, a, b)
				}
				if a, b := df.SeriesMbps(), gf.SeriesMbps(); !slices.Equal(a, b) {
					t.Errorf("%s/%s/loss %v: series differ:\n%v\n%v", proto, queue, loss, a, b)
				}
				if a, b := d.LinkStatsNotes(), g.LinkStatsNotes(); !slices.Equal(a, b) || len(a) != 1 {
					t.Errorf("%s/%s/loss %v: link notes differ:\n%v\n%v", proto, queue, loss, a, b)
				}
			}
		}
	}
}
