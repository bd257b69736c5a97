package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"pcc/internal/core"
	"pcc/internal/netem"
)

// These tests assert the paper-shape claims each experiment reproduces, at
// reduced scale so the whole suite stays fast. EXPERIMENTS.md records the
// full-scale numbers.

func TestShapeLossResilience(t *testing.T) {
	t.Parallel()
	// Fig. 7 core claim: at 1% random loss PCC holds most of capacity
	// while CUBIC collapses.
	path := PathSpec{RateMbps: 100, RTT: 0.030, Loss: 0.01, BufBytes: 375 * netem.KB, Seed: 42}
	ts := new(TrialScratch)
	pcc := runSingle(ts, path, "pcc", 40)
	cubic := runSingle(ts, path, "cubic", 40)
	if pcc < 70 {
		t.Errorf("PCC at 1%% loss = %.1f Mbps, want > 70", pcc)
	}
	if cubic > 30 {
		t.Errorf("CUBIC at 1%% loss = %.1f Mbps, want collapse < 30", cubic)
	}
	if pcc < 3*cubic {
		t.Errorf("PCC/CUBIC = %.1f, want > 3x", pcc/cubic)
	}
}

func TestShapeSatellite(t *testing.T) {
	t.Parallel()
	// Fig. 6 core claim: PCC beats Hybla by a large factor on the
	// satellite link.
	path := PathSpec{RateMbps: 42, RTT: 0.8, Loss: 0.0074, BufBytes: 1000 * netem.KB, Seed: 42}
	ts := new(TrialScratch)
	pcc := runSingle(ts, path, "pcc", 80)
	hybla := runSingle(ts, path, "hybla", 80)
	if pcc < 20 {
		t.Errorf("PCC on satellite = %.1f Mbps, want > 20", pcc)
	}
	if pcc < 2*hybla {
		t.Errorf("PCC/Hybla = %.1f, want > 2x", pcc/hybla)
	}
}

func TestShapeShallowBuffer(t *testing.T) {
	t.Parallel()
	// Fig. 9 core claim: PCC fills the link with a 6-MSS buffer where
	// CUBIC cannot.
	path := PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 9000, Seed: 42}
	ts := new(TrialScratch)
	pcc := runSingle(ts, path, "pcc", 30)
	cubic := runSingle(ts, path, "cubic", 30)
	if pcc < 85 {
		t.Errorf("PCC with 6-MSS buffer = %.1f Mbps, want > 85", pcc)
	}
	if cubic > pcc {
		t.Errorf("CUBIC %.1f beat PCC %.1f on shallow buffer", cubic, pcc)
	}
}

func TestShapeSmallBufferRateLimiter(t *testing.T) {
	t.Parallel()
	// Table 1 core claim: on an 800 Mbps reserved path with a small-buffer
	// limiter, PCC far exceeds Illinois.
	path := PathSpec{RateMbps: 800, RTT: 0.036, BufBytes: 75 * netem.KB, Seed: 42}
	ts := new(TrialScratch)
	pcc := runSingle(ts, path, "pcc", 15)
	ill := runSingle(ts, path, "illinois", 15)
	if pcc < 500 {
		t.Errorf("PCC inter-DC = %.0f Mbps, want > 500", pcc)
	}
	if pcc < 2*ill {
		t.Errorf("PCC/Illinois = %.1f, want > 2x", pcc/ill)
	}
}

func TestShapeRTTFairness(t *testing.T) {
	t.Parallel()
	// Fig. 8 core claim: PCC's long/short throughput ratio is far closer
	// to 1 than New Reno's.
	ratio := func(proto string) float64 {
		r := NewRunner(PathSpec{RateMbps: 100, RTT: 0.010, BufBytes: int(netem.Mbps(100) * 0.010), Seed: 42})
		long := r.AddFlow(FlowSpec{Proto: proto, RTT: 0.060, Bucket: 1})
		short := r.AddFlow(FlowSpec{Proto: proto, RTT: 0.010, StartAt: 5, Bucket: 1})
		r.Run(95)
		return long.WindowMbps(5, 95) / short.WindowMbps(5, 95)
	}
	pcc := ratio("pcc")
	reno := ratio("newreno")
	if pcc < 0.4 {
		t.Errorf("PCC long/short ratio = %.2f, want > 0.4", pcc)
	}
	if reno > pcc {
		t.Errorf("New Reno ratio %.2f better than PCC %.2f", reno, pcc)
	}
}

func TestShapeFairConvergence(t *testing.T) {
	t.Parallel()
	// Fig. 12/13 core claim: concurrent PCC flows share fairly with low
	// variance.
	r := NewRunner(PathSpec{RateMbps: 100, RTT: 0.030, BufBytes: 375 * netem.KB, Seed: 42})
	a := r.AddFlow(FlowSpec{Proto: "pcc", Bucket: 1})
	b := r.AddFlow(FlowSpec{Proto: "pcc", Bucket: 1})
	r.Run(60)
	at, bt := a.WindowMbps(20, 60), b.WindowMbps(20, 60)
	if at+bt < 80 {
		t.Errorf("two PCC flows total %.1f Mbps, want > 80", at+bt)
	}
	ratio := at / bt
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("PCC share ratio %.2f, want near 1", ratio)
	}
}

func TestShapeIncast(t *testing.T) {
	t.Parallel()
	// Fig. 10 core claim: with many synchronized senders PCC's goodput
	// beats TCP's.
	ts := new(TrialScratch)
	pcc := incastGoodput(ts, "pcc", 20, 256, 42)
	tcp := incastGoodput(ts, "newreno", 20, 256, 42)
	if pcc < tcp {
		t.Errorf("incast: PCC %.0f Mbps < TCP %.0f Mbps", pcc, tcp)
	}
}

func TestShapeDynamicNetwork(t *testing.T) {
	t.Parallel()
	// Fig. 11 core claim: PCC tracks a rapidly changing network far better
	// than CUBIC.
	rep, err := RunFig11(context.Background(), 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("fig11 produced %d rows, want 3", len(rep.Rows))
	}
	var pccT, cubicT float64
	for _, row := range rep.Rows {
		switch row[0] {
		case "pcc":
			pccT = parseF(t, row[1])
		case "cubic":
			cubicT = parseF(t, row[1])
		}
	}
	if pccT < 2*cubicT {
		t.Errorf("dynamic network: PCC %.1f vs CUBIC %.1f, want > 2x", pccT, cubicT)
	}
}

func TestShapeHeavyLossUtility(t *testing.T) {
	t.Parallel()
	// §4.4.2 core claim: the loss-resilient utility holds most of the
	// achievable rate at 40% loss.
	cfg := core.HeavyLossConfig(0.030)
	r := NewRunner(PathSpec{RateMbps: 100, RTT: 0.030, Loss: 0.40, BufBytes: 375 * netem.KB, QueueKind: "fq", Seed: 42})
	f := r.AddFlow(FlowSpec{Proto: "pcc", PCCConfig: &cfg})
	r.Run(40)
	got := f.GoodputMbps(40)
	if got < 0.7*60 {
		t.Errorf("heavy-loss PCC = %.1f Mbps, want > %.0f (70%% of achievable)", got, 0.7*60)
	}
}

func TestShapeLatencyUtilityKeepsQueueSmall(t *testing.T) {
	t.Parallel()
	// Fig. 17 core claim: PCC with the latency utility keeps self-inflicted
	// queueing far below TCP's on a bufferbloated FQ link.
	cfg := core.InteractiveConfig(0.020)
	r := NewRunner(PathSpec{RateMbps: 40, RTT: 0.020, BufBytes: 2000 * netem.KB, QueueKind: "fq", Seed: 7})
	f := r.AddFlow(FlowSpec{Proto: "pcc", PCCConfig: &cfg})
	r.Run(40)
	pccRTT := f.RS.MeanRTT()

	r2 := NewRunner(PathSpec{RateMbps: 40, RTT: 0.020, BufBytes: 2000 * netem.KB, QueueKind: "fq", Seed: 7})
	g := r2.AddFlow(FlowSpec{Proto: "cubic"})
	r2.Run(40)
	tcpRTT := g.WS.MeanRTT()

	if pccRTT > tcpRTT/3 {
		t.Errorf("PCC mean RTT %.1f ms vs TCP %.1f ms under bufferbloat; want <1/3",
			pccRTT*1e3, tcpRTT*1e3)
	}
}

func TestRegistryRunsEveryExperimentTiny(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs every driver")
	}
	// Every registered driver must produce a non-empty report at minimum
	// scale without panicking. The heavyweight ones are exercised by the
	// benchmarks instead.
	for _, id := range []string{"theory", "fig7", "loss50"} {
		rep, err := Run(id, 0.01, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("%s: empty report", id)
		}
		if !strings.Contains(rep.String(), rep.ID) {
			t.Fatalf("%s: String() lacks the id", id)
		}
	}
	if _, err := Run("nope", 1, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
