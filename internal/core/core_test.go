package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func mkMI(rateMbps, tputMbps, loss float64, sent int64) MIStats {
	return MIStats{
		Rate:       rateMbps * 1e6 / 8,
		Throughput: tputMbps * 1e6 / 8,
		LossRate:   loss,
		Sent:       sent,
		Acked:      sent - int64(loss*float64(sent)),
		Duration:   0.05,
		AvgRTT:     0.03,
		PrevAvgRTT: 0.03,
		MinRTT:     0.03,
	}
}

func TestSafeUtilityMonotoneInThroughput(t *testing.T) {
	u := &SafeUtility{}
	if u.Eval(mkMI(10, 10, 0, 1000)) <= u.Eval(mkMI(5, 5, 0, 1000)) {
		t.Fatal("utility must grow with loss-free throughput")
	}
}

func TestSafeUtilityLossKnee(t *testing.T) {
	u := &SafeUtility{}
	below := u.Eval(mkMI(100, 98, 0.02, 10000))
	above := u.Eval(mkMI(100, 90, 0.10, 10000))
	if below <= 0 {
		t.Fatalf("utility below the knee should be positive: %v", below)
	}
	if above >= 0 {
		t.Fatalf("utility far above the knee should be negative: %v", above)
	}
}

func TestSafeUtilityForgivesSingleLoss(t *testing.T) {
	u := &SafeUtility{}
	// One loss in a 10-packet MI reads as 10% but must not trip the cliff.
	s := mkMI(1, 0.9, 0.1, 10)
	if u.Eval(s) <= 0 {
		t.Fatalf("single loss in a small MI tripped the sigmoid cliff: %v", u.Eval(s))
	}
	// Two losses are real evidence.
	s2 := mkMI(1, 0.8, 0.2, 10)
	if u.Eval(s2) >= u.Eval(s) {
		t.Fatal("two losses must score worse than one")
	}
}

// Property: safe utility never rewards pure loss increase.
func TestSafeUtilityLossMonotoneProperty(t *testing.T) {
	u := &SafeUtility{}
	f := func(l1, l2 uint8) bool {
		a := float64(l1%50) / 100
		b := float64(l2%50) / 100
		if a > b {
			a, b = b, a
		}
		ua := u.Eval(mkMI(100, 100*(1-a), a, 100000))
		ub := u.Eval(mkMI(100, 100*(1-b), b, 100000))
		return ua >= ub || a == b
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLossResilientUtility(t *testing.T) {
	u := LossResilientUtility{}
	// At 50% loss, more throughput is still strictly better.
	if u.Eval(mkMI(100, 50, 0.5, 10000)) <= u.Eval(mkMI(50, 25, 0.5, 10000)) {
		t.Fatal("loss-resilient utility must keep rewarding throughput at 50% loss")
	}
}

func TestLatencyUtilityPenalizesRTT(t *testing.T) {
	u := &LatencyUtility{}
	low := mkMI(40, 40, 0, 1000)
	high := mkMI(40, 40, 0, 1000)
	high.AvgRTT = 0.2
	high.PrevAvgRTT = 0.2
	if u.Eval(high) >= u.Eval(low) {
		t.Fatal("latency utility must penalize higher RTT at equal throughput")
	}
	rising := mkMI(40, 40, 0, 1000)
	rising.RTTSlope = 0.05
	if u.Eval(rising) >= u.Eval(low) {
		t.Fatal("latency utility must penalize a rising RTT")
	}
}

func TestSigmoidShape(t *testing.T) {
	if s := sigmoid(-1, 100); s < 0.999 {
		t.Fatalf("sigmoid(-1) = %v, want ~1", s)
	}
	if s := sigmoid(1, 100); s > 0.001 {
		t.Fatalf("sigmoid(1) = %v, want ~0", s)
	}
	if s := sigmoid(0, 100); math.Abs(s-0.5) > 1e-9 {
		t.Fatalf("sigmoid(0) = %v, want 0.5", s)
	}
}

// --- controller tests ---

func newTestController(noRCT bool) *Controller {
	cfg := DefaultConfig(0.03)
	cfg.NoRCT = noRCT
	return NewController(cfg, rand.New(rand.NewSource(1)))
}

// feed assigns the next MI and immediately delivers a result with the given
// utility via a utility-value shim: we exploit that the controller only
// uses cfg.Utility.Eval, so tests inject a constant-utility function.
type constUtility struct{ u *float64 }

func (c constUtility) Eval(m MIStats) float64 { return *c.u }

func TestControllerStartingDoublesUntilUtilityDrop(t *testing.T) {
	u := 1.0
	cfg := DefaultConfig(0.03)
	cfg.Utility = constUtility{&u}
	c := NewController(cfg, rand.New(rand.NewSource(1)))
	m0 := c.nextMI()
	m1 := c.nextMI()
	if m1.rate != 2*m0.rate {
		t.Fatalf("starting state rate %v -> %v, want doubling", m0.rate, m1.rate)
	}
	c.deliver(m0, MIStats{})
	u = 2.0
	c.deliver(m1, MIStats{})
	m2 := c.nextMI()
	if m2.rate != 2*m1.rate {
		t.Fatalf("rate %v after growing utility, want %v", m2.rate, 2*m1.rate)
	}
	u = 1.0 // utility decreased: exit to half of m2's rate
	c.deliver(m2, MIStats{})
	if c.State() != StateDecision {
		t.Fatalf("state %v after utility drop, want decision", c.State())
	}
	if got := c.Rate(); got != m2.rate/2 {
		t.Fatalf("rate %v after exit, want %v", got, m2.rate/2)
	}
	if !c.TakeRealign() {
		t.Fatal("state change must request MI realignment")
	}
}

func TestControllerRCTConclusiveUp(t *testing.T) {
	u := 1.0
	cfg := DefaultConfig(0.03)
	cfg.Utility = constUtility{&u}
	c := NewController(cfg, rand.New(rand.NewSource(2)))
	// Drive into decision state.
	c.deliver(c.nextMI(), MIStats{})
	u = 0.5
	c.deliver(c.nextMI(), MIStats{})
	if c.State() != StateDecision {
		t.Fatalf("state = %v, want decision", c.State())
	}
	base := c.Rate()
	// Four trials; assign each a utility proportional to its rate so the
	// higher rate consistently wins.
	var trials []miRole
	for k := 0; k < 4; k++ {
		trials = append(trials, c.nextMI())
	}
	for _, tr := range trials {
		u = tr.rate // higher rate → higher utility
		c.deliver(tr, MIStats{})
	}
	if c.State() != StateAdjusting {
		t.Fatalf("state = %v after conclusive trials, want adjusting", c.State())
	}
	if c.Rate() <= base {
		t.Fatalf("rate %v after conclusive up, want > %v", c.Rate(), base)
	}
	t.Run("degenerate-trial", pccRowDegenerateTrial)
}

// pccRowDegenerateTrial idles a sender mid-round, so a trial MI of the
// running round closes having sent nothing and finalizes with no evidence.
// The round must start over rather than wait for that result: rounds keep
// concluding after the gap.
func pccRowDegenerateTrial(t *testing.T) {
	const capacity, rtt = 20e6 / 8, 0.03
	p := New(DefaultConfig(rtt), rand.New(rand.NewSource(4)))
	p.Start(0)
	type ack struct {
		at  float64
		seq int64
	}
	var acks []ack // one RTT for every packet keeps them in order
	deliver := func(now float64) {
		for ; len(acks) > 0 && acks[0].at <= now; acks = acks[1:] {
			p.OnAck(acks[0].seq, rtt, acks[0].at)
		}
	}
	now, seq, credit := 0.0, int64(0), 0.0
	stalled := int64(-1) // decisions when the gap opened
	for now < 8 {
		deliver(now)
		if stalled < 0 && p.ctl.State() == StateDecision &&
			p.ctl.trialsLeft > 0 && p.ctl.trialsLeft < p.ctl.numTrials() {
			stalled = p.ctl.Decisions()
			for end := now + 0.5; now < end; now += 0.005 {
				deliver(now)
				p.Rate(now)
			}
			continue
		}
		r := p.Rate(now)
		p.OnSend(seq, MSS, now)
		if credit += min(1, capacity/r); credit >= 1 { // the bottleneck drops the excess
			credit--
			acks = append(acks, ack{now + rtt, seq})
		}
		seq++
		now += MSS / r
	}
	if stalled < 0 {
		t.Fatal("test bug: the sender never idled mid-round")
	}
	if got := p.ctl.Decisions(); got <= stalled {
		t.Fatalf("%d rounds concluded after the gap (%d before it): the round stalled on its empty trial", got-stalled, stalled)
	}
}

func TestControllerInconclusiveGrowsEpsilon(t *testing.T) {
	u := 1.0
	cfg := DefaultConfig(0.03)
	cfg.Utility = constUtility{&u}
	c := NewController(cfg, rand.New(rand.NewSource(3)))
	c.deliver(c.nextMI(), MIStats{})
	u = 0.5
	c.deliver(c.nextMI(), MIStats{})
	eps0 := c.Epsilon()
	// Deliver identical utilities: ties are inconclusive.
	var trials []miRole
	for k := 0; k < 4; k++ {
		trials = append(trials, c.nextMI())
	}
	u = 1.0
	for _, tr := range trials {
		c.deliver(tr, MIStats{})
	}
	if c.State() != StateDecision {
		t.Fatalf("state = %v after tie, want decision", c.State())
	}
	if c.Epsilon() <= eps0 {
		t.Fatalf("epsilon %v after inconclusive round, want > %v", c.Epsilon(), eps0)
	}
	if c.Inconclusive() != 1 {
		t.Fatalf("inconclusive count = %d", c.Inconclusive())
	}
}

func TestControllerEpsilonCapped(t *testing.T) {
	u := 1.0
	cfg := DefaultConfig(0.03)
	cfg.Utility = constUtility{&u}
	c := NewController(cfg, rand.New(rand.NewSource(4)))
	c.deliver(c.nextMI(), MIStats{})
	u = 0.5
	c.deliver(c.nextMI(), MIStats{})
	for round := 0; round < 20; round++ {
		var trials []miRole
		for k := 0; k < 4; k++ {
			trials = append(trials, c.nextMI())
		}
		for _, tr := range trials {
			c.deliver(tr, MIStats{})
		}
	}
	if c.Epsilon() > cfg.EpsMax+1e-12 {
		t.Fatalf("epsilon %v exceeds EpsMax %v", c.Epsilon(), cfg.EpsMax)
	}
}

func TestControllerNoRCTUsesSinglePair(t *testing.T) {
	c := newTestController(true)
	if got := c.numTrials(); got != 2 {
		t.Fatalf("NoRCT trials = %d, want 2", got)
	}
	c = newTestController(false)
	if got := c.numTrials(); got != 4 {
		t.Fatalf("RCT trials = %d, want 4", got)
	}
}

// --- monitor tests ---

func TestMIDurationRespectsFloors(t *testing.T) {
	cfg := DefaultConfig(0.03)
	p := New(cfg, rand.New(rand.NewSource(1)))
	// At a tiny rate the 10-packet floor dominates.
	d := p.miDuration(2 * MSS) // 2 pkts/s
	if d < 10*MSS/(2.0*MSS)-1e-9 {
		t.Fatalf("MI %v shorter than the 10-packet floor", d)
	}
	// At a high rate the RTT term dominates: within [1.7, 2.2] RTT.
	for i := 0; i < 50; i++ {
		d = p.miDuration(1e9)
		lo, hi := 1.7*p.SRTT(), 2.2*p.SRTT()
		if d < lo-1e-9 || d > hi+1e-9 {
			t.Fatalf("MI %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestMonitorCountsLossAtFinalize(t *testing.T) {
	cfg := DefaultConfig(0.03)
	p := New(cfg, rand.New(rand.NewSource(1)))
	p.Start(0)
	now := 0.0
	seq := int64(0)
	// Send for 3 seconds (bounded by a packet budget), acking only 80%.
	for now < 3.0 && seq < 200000 {
		r := p.Rate(now)
		p.OnSend(seq, MSS, now)
		if seq%5 != 0 {
			p.OnAck(seq, 0.03, now+0.03)
		}
		seq++
		now += MSS / r
	}
	// Flush finalization.
	p.Rate(now + 5)
	if p.TotalLostAtFinalize == 0 {
		t.Fatal("monitor never counted the unacked packets as lost")
	}
	frac := float64(p.TotalLostAtFinalize) / float64(p.TotalSent)
	if frac < 0.1 || frac > 0.35 {
		t.Fatalf("measured loss fraction %.3f, want ~0.2", frac)
	}
}

func TestPCCStartingDoublesInPractice(t *testing.T) {
	cfg := DefaultConfig(0.03)
	p := New(cfg, rand.New(rand.NewSource(1)))
	p.Start(0)
	r0 := p.Rate(0)
	// Simulate perfect acks until the rate has grown 8x (bounded by a
	// packet budget: with nothing pushing back, the rate doubles forever).
	now := 0.0
	seq := int64(0)
	for seq < 200000 && p.Rate(now) < 8*r0 {
		r := p.Rate(now)
		p.OnSend(seq, MSS, now)
		p.OnAck(seq, 0.03, now+0.03)
		seq++
		now += MSS / r
	}
	if p.Rate(now) < 8*r0 {
		t.Fatalf("rate %v after %d clean acks, want >= 8x initial %v", p.Rate(now), seq, r0)
	}
}

func TestDefaultConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// check reports what is wrong with the normalized sender, or "".
		check func(p *PCC) string
	}{
		{"zero-config", Config{}, func(p *PCC) string {
			if p.cfg.Utility == nil || p.cfg.EpsMin <= 0 || p.cfg.MinPktsPerMI <= 0 {
				return "New did not normalize the zero config"
			}
			return ""
		}},
		// An inconsistent EpsMax is repaired to a cap at or above the
		// floor: an inconclusive round must never set ε below EpsMin.
		{"epsmax-below-large-epsmin", Config{EpsMin: 0.08, EpsMax: 0.02}, func(p *PCC) string {
			if p.cfg.EpsMax < p.cfg.EpsMin {
				return "EpsMax repaired below EpsMin"
			}
			return ""
		}},
		{"epsmax-below-small-epsmin", Config{EpsMin: 0.01, EpsMax: 0.005}, func(p *PCC) string {
			if p.cfg.EpsMax != 0.05 {
				return "EpsMax not repaired to the paper's 0.05"
			}
			return ""
		}},
		// Absent a rate hint the entry rate is 2 packets per 100 ms at the
		// flow's packet size, and the srtt seed inferred from it is 100 ms.
		{"no-hint-sized-packets", Config{PacketSize: 500}, func(p *PCC) string {
			if p.cfg.InitialRate != 2*500/0.1 || p.ctl.Rate() != p.cfg.InitialRate {
				return "initial rate ignores PacketSize"
			}
			if math.Abs(p.SRTT()-0.1) > 1e-12 {
				return "srtt seed is not the 100 ms default"
			}
			return ""
		}},
		// The rate floor is 2 packets per second of the size the sender
		// ends up with, even when PacketSize is set after DefaultConfig
		// (an unstarted sender reports its floor).
		{"packetsize-after-default", func() Config {
			c := DefaultConfig(0.05)
			c.PacketSize = 512
			return c
		}(), func(p *PCC) string {
			if r := p.Rate(0); r != 2*512 {
				return fmt.Sprintf("rate floor %v, want 1024", r)
			}
			return ""
		}},
	} {
		p := New(tc.cfg, nil)
		if msg := tc.check(p); msg != "" {
			t.Errorf("%s: %s: cfg %+v, controller rate %v", tc.name, msg, p.cfg, p.ctl.Rate())
		}
	}
}

func TestHeavyLossAndInteractiveConfigs(t *testing.T) {
	h := HeavyLossConfig(0.03)
	if h.MinPktsPerMI < 100 {
		t.Fatalf("heavy-loss MI floor = %d", h.MinPktsPerMI)
	}
	if _, ok := h.Utility.(LossResilientUtility); !ok {
		t.Fatalf("heavy-loss utility = %T", h.Utility)
	}
	i := InteractiveConfig(0.03)
	if _, ok := i.Utility.(*LatencyUtility); !ok {
		t.Fatalf("interactive utility = %T", i.Utility)
	}
	if i.MIRttHi >= 1.7 {
		t.Fatalf("interactive MI bound = %v, want tighter than default", i.MIRttHi)
	}
}

// TestUtilityConfig pins the utility-name table both CLIs share.
func TestUtilityConfig(t *testing.T) {
	const rtt = 0.03
	r, err := UtilityConfig("resilient", rtt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Utility.(LossResilientUtility); r.MinPktsPerMI != 100 || !ok {
		t.Errorf("resilient: MinPktsPerMI %d, utility %T; want 100, LossResilientUtility", r.MinPktsPerMI, r.Utility)
	}
	for name, want := range map[string]Config{
		"safe":      DefaultConfig(rtt),
		"latency":   InteractiveConfig(rtt),
		"resilient": HeavyLossConfig(rtt),
	} {
		if got, err := UtilityConfig(name, rtt); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, %v; want %+v", name, got, err, want)
		}
	}
	if v, err := UtilityConfig("vivace", rtt); err != nil || !isVivace(v.Utility) {
		t.Errorf("vivace: %+v, %v; want the Vivace utility", v, err)
	}
	if _, err := UtilityConfig("fast", rtt); err == nil || !strings.Contains(err.Error(), `unknown utility "fast"`) {
		t.Errorf("fast: error %v, want unknown utility", err)
	}
}

func isVivace(u Utility) bool {
	_, ok := u.(*VivaceUtility)
	return ok
}

// BenchmarkPCCPacket times one Rate+OnSend+OnAck cycle on a synthetic clock
// at the rate PCC asks for: the monitor and the controller alone, no engine
// and no network. A 100 Mbps bottleneck acknowledges only capacity/rate of
// what is sent above it, one 30 ms RTT later, so the controller settles
// instead of doubling for ever. Warm, the cycle allocates nothing; CI's
// bench-delta job gates that.
func BenchmarkPCCPacket(b *testing.B) {
	const rtt, capacity = 0.03, 100e6 / 8
	p := New(DefaultConfig(rtt), rand.New(rand.NewSource(1)))
	p.Start(0)
	type sent struct {
		seq int64
		at  float64
	}
	ring := make([]sent, 1<<14)
	head, tail := 0, 0
	now, seq, credit := 0.0, int64(0), 0.0
	cycle := func() {
		rate := p.Rate(now)
		now += MSS / rate
		p.OnSend(seq, MSS, now)
		if credit += min(1, capacity/rate); credit >= 1 {
			credit--
			ring[head&(len(ring)-1)] = sent{seq, now}
			head++
		}
		seq++
		for tail < head && (now-ring[tail&(len(ring)-1)].at >= rtt || head-tail == len(ring)) {
			p.OnAck(ring[tail&(len(ring)-1)].seq, rtt, now)
			tail++
		}
	}
	for i := 0; i < 100_000; i++ {
		cycle() // warm the MI records, their seq lists and the seq ring
	}
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	// allocs/op rounds down, so an allocation every few hundred packets
	// (one per MI, say) reads 0 there; this exact rate does not.
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "mallocs/op")
}
