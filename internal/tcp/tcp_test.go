package tcp

import (
	"math"
	"testing"

	"pcc/internal/cc"
)

func est(rtt float64) *cc.RTTEstimator {
	e := cc.NewRTTEstimator()
	e.Sample(rtt)
	return e
}

func TestRegistryKnowsAllVariants(t *testing.T) {
	for _, name := range Variants() {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Cwnd() < 1 {
			t.Fatalf("%s initial cwnd %v < 1", name, a.Cwnd())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestNewRenoSlowStartDoubles(t *testing.T) {
	a := NewReno()
	e := est(0.03)
	start := a.Cwnd()
	for i := 0; i < int(start); i++ {
		a.OnAck(0, 0.03, e)
	}
	if a.Cwnd() != 2*start {
		t.Fatalf("slow start: cwnd %v after %v acks, want %v", a.Cwnd(), start, 2*start)
	}
}

func TestNewRenoCongestionAvoidanceLinear(t *testing.T) {
	a := NewReno()
	a.cwnd, a.ssthresh = 10, 5 // force CA
	e := est(0.03)
	for i := 0; i < 10; i++ {
		a.OnAck(0, 0.03, e)
	}
	if a.Cwnd() < 10.9 || a.Cwnd() > 11.1 {
		t.Fatalf("CA: cwnd %v after one window, want ~11", a.Cwnd())
	}
}

func TestNewRenoHalvesOnLoss(t *testing.T) {
	a := NewReno()
	a.cwnd = 100
	a.OnLossEvent(0)
	if a.Cwnd() != 50 {
		t.Fatalf("cwnd %v after loss, want 50", a.Cwnd())
	}
	a.OnTimeout(0)
	if a.Cwnd() != 1 {
		t.Fatalf("cwnd %v after RTO, want 1", a.Cwnd())
	}
}

func TestCubicWindowCurve(t *testing.T) {
	a := NewCubic()
	a.cwnd, a.ssthresh = 100, 50 // CA
	// Long RTT (300 ms) keeps the TCP-friendly envelope below the cubic
	// curve so the test observes the cubic shape itself.
	e := est(0.3)
	a.OnLossEvent(0) // cwnd = 70, wMax = 100
	if math.Abs(a.Cwnd()-70) > 1e-9 {
		t.Fatalf("cwnd after loss %v, want 70", a.Cwnd())
	}
	// K = cbrt(wMax(1-beta)/C) = cbrt(100*0.3/0.4) = cbrt(75) ≈ 4.217 s:
	// after K seconds of acks the window should be back near wMax.
	now := 0.0
	for now < 4.3 {
		now += 0.3
		for i := 0; i < int(a.Cwnd()); i++ {
			a.OnAck(now, 0.3, e)
		}
	}
	if a.Cwnd() < 85 || a.Cwnd() > 115 {
		t.Fatalf("cwnd %v after K seconds, want near wMax=100", a.Cwnd())
	}
}

func TestCubicFastConvergence(t *testing.T) {
	a := NewCubic()
	a.cwnd, a.ssthresh = 100, 50
	a.OnLossEvent(0)
	w1 := a.wMax // 100
	a.OnLossEvent(0)
	if a.wMax >= w1 {
		t.Fatalf("fast convergence did not shrink wMax: %v >= %v", a.wMax, w1)
	}
}

func TestIllinoisAlphaBetaBounds(t *testing.T) {
	a := NewIllinois()
	e := est(0.03)
	// Feed small then large delays and check alpha/beta stay within the
	// configured bounds in every regime.
	for _, rtt := range []float64{0.03, 0.03, 0.05, 0.09, 0.15, 0.03, 0.2} {
		for i := 0; i < 50; i++ {
			a.OnAck(0, rtt, e)
		}
		alpha, beta := a.alphaBeta()
		if alpha < illinoisAlphaMin-1e-9 || alpha > illinoisAlphaMax+1e-9 {
			t.Fatalf("alpha %v out of [%v,%v]", alpha, illinoisAlphaMin, illinoisAlphaMax)
		}
		if beta < illinoisBetaMin-1e-9 || beta > illinoisBetaMax+1e-9 {
			t.Fatalf("beta %v out of [%v,%v]", beta, illinoisBetaMin, illinoisBetaMax)
		}
	}
}

func TestIllinoisAggressiveWhenDelayLow(t *testing.T) {
	a := NewIllinois()
	e := est(0.03)
	a.cwnd, a.ssthresh = 100, 50
	// Mostly base RTT with one high excursion to establish dm.
	for i := 0; i < 200; i++ {
		a.OnAck(0, 0.03, e)
	}
	for i := 0; i < 10; i++ {
		a.OnAck(0, 0.09, e)
	}
	for i := 0; i < 500; i++ {
		a.OnAck(0, 0.0301, e)
	}
	alpha, beta := a.alphaBeta()
	if alpha < 5 {
		t.Fatalf("alpha %v at near-zero delay, want near AlphaMax", alpha)
	}
	if beta != illinoisBetaMin {
		t.Fatalf("beta %v at near-zero delay, want BetaMin", beta)
	}
}

func TestHyblaRhoScalesGrowth(t *testing.T) {
	short := NewHybla()
	long := NewHybla()
	eShort := est(0.025)
	eLong := est(0.2) // rho = 8
	short.cwnd, short.ssthresh = 10, 5
	long.cwnd, long.ssthresh = 10, 5
	for i := 0; i < 10; i++ {
		short.OnAck(0, 0.025, eShort)
		long.OnAck(0, 0.2, eLong)
	}
	growShort := short.Cwnd() - 10
	growLong := long.Cwnd() - 10
	// ρ=8 gives ρ²=64x the per-ack step; compounding over a growing window
	// dilutes the observed ratio, so require a conservative 20x.
	if growLong < growShort*20 {
		t.Fatalf("Hybla long-RTT growth %v not ~rho^2 times short %v", growLong, growShort)
	}
}

func TestHyblaRhoClamp(t *testing.T) {
	a := NewHybla()
	e := est(2.0) // rho would be 80 unclamped
	a.OnAck(0, 2.0, e)
	if a.rho != hyblaRhoMax {
		t.Fatalf("rho = %v, want clamp %v", a.rho, hyblaRhoMax)
	}
}

func TestVegasBacksOffOnQueueing(t *testing.T) {
	a := NewVegas()
	a.cwnd, a.ssthresh = 50, 10 // CA
	e := est(0.03)
	// Base RTT 30 ms, then persistent 60 ms: diff = 50*(1-0.5) = 25 > beta.
	now := 0.0
	for i := 0; i < 200; i++ {
		now += 0.01
		a.OnAck(now, 0.03, e)
	}
	w := a.Cwnd()
	for i := 0; i < 400; i++ {
		now += 0.01
		a.OnAck(now, 0.06, e)
	}
	if a.Cwnd() >= w {
		t.Fatalf("Vegas did not back off under queueing: %v -> %v", w, a.Cwnd())
	}
}

func TestBicBinarySearchApproachesWMax(t *testing.T) {
	a := NewBic()
	a.cwnd, a.ssthresh = 100, 50
	a.OnLossEvent(0) // wMax=100, cwnd=80
	e := est(0.03)
	for i := 0; i < 5000; i++ {
		a.OnAck(0, 0.03, e)
	}
	if a.Cwnd() < 95 {
		t.Fatalf("BIC stuck at %v, want approach to wMax 100", a.Cwnd())
	}
}

func TestWestwoodSetsWindowFromBWE(t *testing.T) {
	a := NewWestwood()
	a.cwnd, a.ssthresh = 400, 100
	e := est(0.1)
	// 100 acks per 100 ms = 1000 pkts/s; BWE*minRTT = 100 packets.
	now := 0.0
	for i := 0; i < 3000; i++ {
		now += 0.001
		a.OnAck(now, 0.1, e)
	}
	a.OnLossEvent(now)
	if a.Cwnd() < 50 || a.Cwnd() > 150 {
		t.Fatalf("Westwood cwnd %v after loss, want ~BWE*RTTmin=100", a.Cwnd())
	}
}

func TestAllVariantsSurviveEventStorm(t *testing.T) {
	// Robustness: any interleaving of events must keep cwnd >= 1 and finite.
	for _, name := range Variants() {
		a, _ := New(name)
		e := est(0.05)
		now := 0.0
		for i := 0; i < 5000; i++ {
			now += 0.001
			switch i % 7 {
			case 0, 1, 2, 3:
				a.OnAck(now, 0.05+float64(i%13)*0.001, e)
			case 4:
				a.OnDupAck()
			case 5:
				a.OnLossEvent(now)
			case 6:
				a.OnTimeout(now)
			}
			w := a.Cwnd()
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 1 {
				t.Fatalf("%s cwnd degenerate: %v at step %d", name, w, i)
			}
		}
	}
}
