package core

import (
	"fmt"
	"math/rand"
)

// MSS is the default data packet size assumed when Config.PacketSize is
// unset; it matches the simulator's default. Per-packet byte accounting
// never assumes it: OnSend records each packet's true size and OnAck
// credits exactly that size.
const MSS = 1500

// Config parameterizes a PCC sender. The zero value is not usable; call
// DefaultConfig and override.
type Config struct {
	// Utility scores each monitor interval (default: the §2.2 safe
	// utility).
	Utility Utility
	// EpsMin is the minimum experiment granularity ε (paper default 0.01).
	EpsMin float64
	// EpsMax caps ε growth under inconclusive RCTs (paper default 0.05).
	EpsMax float64
	// MIRttLo and MIRttHi bound the uniform-random MI length in RTTs
	// (paper default [1.7, 2.2]; Fig. 16 sweeps this down to [1.0, 1.0]).
	MIRttLo, MIRttHi float64
	// MinPktsPerMI floors the MI length at the time to send this many
	// packets (paper default 10).
	MinPktsPerMI int
	// InitialRate is the Starting-state entry rate, bytes/s (paper:
	// 2·MSS/RTT; callers seed it from their RTT hint).
	InitialRate float64
	// MinRate floors the controlled rate, bytes/s.
	MinRate float64
	// NoRCT disables randomized controlled trials (single comparison per
	// decision), reproducing the "PCC without RCT" line of Fig. 16.
	NoRCT bool
	// FinalizeRTTs is how many smoothed RTTs after an MI ends to wait for
	// its straggler ACKs before computing its stats (default 1.5).
	FinalizeRTTs float64
	// PacketSize is the data packet size in bytes the sender will use
	// (default MSS). The monitor uses it for the MinPktsPerMI duration
	// floor and to infer the caller's RTT hint back from InitialRate; the
	// per-packet byte accounting itself always uses the true size reported
	// at OnSend.
	PacketSize int
}

// defaultSafeUtility is the shared instance DefaultConfig and normalize
// hand out. Utility implementations are pure functions of their stats and
// nothing mutates a default-constructed SafeUtility, so one instance can
// serve every flow of every concurrently running trial — saving one
// allocation per flow per trial on the sweeps' setup path. Callers wanting
// different knobs build their own (&SafeUtility{...}).
var defaultSafeUtility = NewSafeUtility()

// DefaultConfig returns the paper's default parameters with the safe
// utility and an initial rate derived from rttHint (2·MSS/RTT).
func DefaultConfig(rttHint float64) Config {
	if rttHint <= 0 {
		rttHint = 0.1
	}
	return Config{
		Utility:      defaultSafeUtility,
		EpsMin:       0.01,
		EpsMax:       0.05,
		MIRttLo:      1.7,
		MIRttHi:      2.2,
		MinPktsPerMI: 10,
		InitialRate:  2 * MSS / rttHint,
		MinRate:      2 * MSS, // 2 packets/s absolute floor
		FinalizeRTTs: 1.5,
	}
}

// SizedConfig returns DefaultConfig with a non-default data packet size
// applied: the MinPktsPerMI duration floor, the initial rate and the rate
// floor all scale to the flow's packet size (2 packets per RTT / per
// second, as DefaultConfig's MSS-based values do for 1500-byte flows).
func SizedConfig(rttHint float64, packetSize int) Config {
	c := DefaultConfig(rttHint)
	if packetSize <= 0 || packetSize == MSS {
		return c
	}
	if rttHint <= 0 {
		rttHint = 0.1
	}
	c.PacketSize = packetSize
	c.InitialRate = 2 * float64(packetSize) / rttHint
	c.MinRate = 2 * float64(packetSize)
	return c
}

// HeavyLossConfig returns the configuration for flows expecting extreme
// random loss under per-flow fair queueing (§4.4.2): the loss-resilient
// utility u = T·(1−L) plus a 100-packet MI floor. At tens of percent loss,
// a 10-packet MI measures throughput with ~±15% binomial noise — far above
// the ±ε experiment signal — so the learner needs larger samples for its
// comparisons to mean anything.
func HeavyLossConfig(rttHint float64) Config {
	c := DefaultConfig(rttHint)
	c.Utility = LossResilientUtility{}
	c.MinPktsPerMI = 100
	return c
}

// InteractiveConfig returns the configuration used for latency-sensitive
// interactive flows (§4.4.1): the latency utility plus a tighter control
// loop — shorter MIs and a faster result deadline — so the learner reacts
// to queue build-up before the queue's own RTT inflation slows it down.
func InteractiveConfig(rttHint float64) Config {
	c := DefaultConfig(rttHint)
	c.Utility = NewLatencyUtility()
	c.MIRttLo, c.MIRttHi = 1.0, 1.3
	c.FinalizeRTTs = 1.1
	return c
}

// UtilityConfig returns the configuration a utility name selects in pccsim
// and pccsend: safe is DefaultConfig, latency InteractiveConfig, resilient
// HeavyLossConfig, and vivace DefaultConfig with the Vivace utility.
func UtilityConfig(name string, rttHint float64) (Config, error) {
	switch name {
	case "safe":
		return DefaultConfig(rttHint), nil
	case "latency":
		return InteractiveConfig(rttHint), nil
	case "resilient":
		return HeavyLossConfig(rttHint), nil
	case "vivace":
		c := DefaultConfig(rttHint)
		c.Utility = NewVivaceUtility()
		return c, nil
	}
	return Config{}, fmt.Errorf("unknown utility %q (safe, latency, resilient, vivace)", name)
}

// mi is one monitor interval's accounting record.
type mi struct {
	id         int64
	role       miRole // the controller's experiment, target rate included
	start      float64
	end        float64 // actual end (realign may shorten)
	closed     bool
	deadline   float64
	sent       int64
	sentBytes  int64
	acked      int64
	ackedBytes int64
	rttSum     float64
	rttCnt     int64
	// Least-squares accumulators for the within-MI RTT slope (t is the
	// ACK arrival time relative to the MI start, to keep the sums well
	// conditioned).
	sumT, sumT2, sumTR float64
	seqs               []int64
}

// PCC is a complete PCC sender algorithm: Monitor module + Performance-
// oriented control module (Fig. 2). It implements cc.RateAlgo, and the
// identical code runs under internal/transport over real UDP.
type PCC struct {
	cfg Config
	ctl *Controller
	rng *rand.Rand

	srtt   float64
	minRTT float64
	cur    *mi
	// pending[pendHead:] is the deadline-ordered list of closed MIs awaiting
	// their finalize deadline, consumed by index so the backing array's
	// capacity survives (front re-slicing would strand the consumed prefix
	// and cost one allocation per closed MI in steady state).
	pending    []*mi
	pendHead   int
	miFree     []*mi // finalized MIs recycled by openMI (seqs backing kept)
	bySeq      miRing
	prevAvgRTT float64

	started bool
	now     float64

	// Telemetry for experiments.
	TotalSent           int64
	TotalAcked          int64
	TotalLostAtFinalize int64
	MICount             int64
}

// normalize applies New's defaulting rules, shared with Reset so a reused
// sender starts from exactly the configuration a fresh one would.
func (cfg Config) normalize() Config {
	if cfg.Utility == nil {
		cfg.Utility = defaultSafeUtility
	}
	if cfg.EpsMin <= 0 {
		cfg.EpsMin = 0.01
	}
	if cfg.EpsMax < cfg.EpsMin {
		cfg.EpsMax = max(0.05, cfg.EpsMin)
	}
	if cfg.MIRttLo <= 0 {
		cfg.MIRttLo = 1.7
	}
	if cfg.MIRttHi < cfg.MIRttLo {
		cfg.MIRttHi = cfg.MIRttLo
	}
	if cfg.MinPktsPerMI <= 0 {
		cfg.MinPktsPerMI = 10
	}
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = MSS
	}
	if cfg.InitialRate <= 0 {
		cfg.InitialRate = 2 * float64(cfg.PacketSize) / 0.1 // 2 packets per 100 ms absent a hint
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = 2 * float64(cfg.PacketSize) // 2 packets/s absolute floor
	}
	if cfg.FinalizeRTTs <= 0 {
		cfg.FinalizeRTTs = 1.5
	}
	return cfg
}

// initialSRTT is the monitor's smoothed-RTT seed: the caller's RTT hint
// inferred back from InitialRate = 2·pkt/RTT (100 ms absent a hint, which
// normalize turns into that InitialRate).
func (cfg Config) initialSRTT() float64 {
	return 2 * float64(cfg.PacketSize) / cfg.InitialRate
}

// New builds a PCC sender. rng drives MI-length jitter and RCT ordering; it
// must not be shared with other components.
func New(cfg Config, rng *rand.Rand) *PCC {
	cfg = cfg.normalize()
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	p := &PCC{cfg: cfg, rng: rng}
	p.ctl = NewController(cfg, rng)
	p.srtt = cfg.initialSRTT()
	return p
}

// Reset returns the sender to the state New(cfg, rand.New(rand.NewSource(
// seed))) would build, in place: the RNG is rewound to seed, the controller
// re-enters its Starting state, and the monitor's bookkeeping clears — while
// the recycled MI records (with their seqs backing) and the seq→MI ring's
// slot array are retained. A reset sender therefore produces bit-identical
// behaviour to a fresh one at a fraction of the setup allocations (seeding a
// math/rand generator alone fills a 607-word register).
func (p *PCC) Reset(cfg Config, seed int64) {
	cfg = cfg.normalize()
	p.cfg = cfg
	p.rng.Seed(seed)
	p.ctl.Reset(cfg, p.rng)
	p.srtt = cfg.initialSRTT()
	p.minRTT = 0
	if p.cur != nil {
		p.miFree = append(p.miFree, p.cur)
		p.cur = nil
	}
	p.miFree = append(p.miFree, p.pending[p.pendHead:]...)
	p.pending, p.pendHead = p.pending[:0], 0
	p.bySeq.reset()
	p.prevAvgRTT = 0
	p.started = false
	p.now = 0
	p.TotalSent, p.TotalAcked, p.TotalLostAtFinalize, p.MICount = 0, 0, 0, 0
}

// Controller exposes the learning state machine (read-only use in tests
// and experiments).
func (p *PCC) Controller() *Controller { return p.ctl }

// SRTT returns the smoothed RTT the monitor tracks.
func (p *PCC) SRTT() float64 { return p.srtt }

// Name implements cc.RateAlgo.
func (p *PCC) Name() string { return "pcc" }

// Start implements cc.RateAlgo.
func (p *PCC) Start(now float64) {
	p.now = now
	p.started = true
	p.openMI(now)
}

// miDuration draws the §3.1 monitor-interval length:
// max(time for MinPktsPerMI packets, U[MIRttLo, MIRttHi]·RTT).
func (p *PCC) miDuration(rate float64) float64 {
	tPkts := float64(p.cfg.MinPktsPerMI) * float64(p.cfg.PacketSize) / rate
	lo, hi := p.cfg.MIRttLo, p.cfg.MIRttHi
	tRtt := (lo + (hi-lo)*p.rng.Float64()) * p.srtt
	if tPkts > tRtt {
		return tPkts
	}
	return tRtt
}

func (p *PCC) openMI(now float64) {
	id := p.MICount
	role := p.ctl.nextMI()
	var m *mi
	if n := len(p.miFree); n > 0 {
		m = p.miFree[n-1]
		p.miFree = p.miFree[:n-1]
		seqs := m.seqs[:0]
		*m = mi{id: id, role: role, start: now, seqs: seqs}
	} else {
		m = &mi{id: id, role: role, start: now}
	}
	p.cur = m
	p.cur.end = now + p.miDuration(role.rate)
	p.MICount++
}

// closeMI moves the current MI to the pending list and opens the next one.
func (p *PCC) closeMI(now float64) {
	m := p.cur
	m.closed = true
	if now < m.end {
		m.end = now // realigned early
	}
	m.deadline = m.end + p.cfg.FinalizeRTTs*p.srtt
	// Insert in deadline order within the live region. MIs close in time
	// order but deadlines are end + FinalizeRTTs·srtt with a moving srtt,
	// so when srtt shrinks faster than MIs lengthen, a later MI's deadline
	// can precede an earlier one's — and the finalize loop in advance only
	// examines the head, so an unexpired head must never hide an expired
	// later entry.
	i := len(p.pending)
	for i > p.pendHead && p.pending[i-1].deadline > m.deadline {
		i--
	}
	p.pending = append(p.pending, nil)
	copy(p.pending[i+1:], p.pending[i:])
	p.pending[i] = m
	p.openMI(now)
}

// advance drives MI boundaries, realignment and finalization; called from
// every OnSend/OnAck/Rate hook with the current time.
func (p *PCC) advance(now float64) {
	p.now = now
	if p.cur == nil {
		return
	}
	if now >= p.cur.end {
		p.closeMI(now)
	}
	// Finalize pending MIs whose straggler deadline passed.
	for p.pendHead < len(p.pending) && now >= p.pending[p.pendHead].deadline {
		m := p.pending[p.pendHead]
		p.pendHead++
		if p.pendHead == len(p.pending) {
			p.pending, p.pendHead = p.pending[:0], 0
		}
		p.finalize(m)
		// finalize leaves no reference behind (bySeq entries are deleted,
		// the controller gets stats by value), so the record is reusable.
		p.miFree = append(p.miFree, m)
	}
	// §3.1 optimization: when a decision arrives mid-MI, change rate
	// immediately and re-align the MI to the rate change.
	if p.ctl.TakeRealign() {
		p.closeMI(now)
	}
}

// finalize computes an MI's stats and feeds the controller.
func (p *PCC) finalize(m *mi) {
	for _, seq := range m.seqs {
		if owner, _ := p.bySeq.get(seq); owner == m {
			p.bySeq.del(seq)
		}
	}
	dur := m.end - m.start
	if dur <= 0 || m.sent == 0 {
		return // degenerate MI (realigned immediately); no evidence
	}
	lost := m.sent - m.acked
	if lost < 0 {
		lost = 0
	}
	p.TotalLostAtFinalize += lost
	stats := MIStats{
		Rate:       float64(m.sentBytes) / dur,
		TargetRate: m.role.rate,
		Throughput: float64(m.ackedBytes) / dur,
		LossRate:   float64(lost) / float64(m.sent),
		Duration:   dur,
		Sent:       m.sent,
		Acked:      m.acked,
		PrevAvgRTT: p.prevAvgRTT,
		MinRTT:     p.minRTT,
	}
	if m.rttCnt > 0 {
		stats.AvgRTT = m.rttSum / float64(m.rttCnt)
		p.prevAvgRTT = stats.AvgRTT
	}
	if m.rttCnt >= 2 {
		// Least-squares slope of RTT against ACK time within the MI.
		n := float64(m.rttCnt)
		denom := n*m.sumT2 - m.sumT*m.sumT
		if denom > 1e-12 {
			stats.RTTSlope = (n*m.sumTR - m.sumT*m.rttSum) / denom
		}
	}
	p.ctl.deliver(m.role, stats)
}

// Rate implements cc.RateAlgo; the harness polls it before each send.
func (p *PCC) Rate(now float64) float64 {
	p.advance(now)
	if p.cur == nil {
		return p.cfg.MinRate
	}
	return p.cur.role.rate
}

// OnSend implements cc.RateAlgo.
func (p *PCC) OnSend(seq int64, size int, now float64) {
	p.advance(now)
	m := p.cur
	m.sent++
	m.sentBytes += int64(size)
	m.seqs = append(m.seqs, seq)
	p.bySeq.put(seq, m, size)
	p.TotalSent++
}

// OnAck implements cc.RateAlgo.
func (p *PCC) OnAck(seq int64, rtt float64, now float64) {
	if rtt > 0 {
		if p.srtt == 0 {
			p.srtt = rtt
		} else {
			p.srtt = 0.875*p.srtt + 0.125*rtt
		}
		if p.minRTT == 0 || rtt < p.minRTT {
			p.minRTT = rtt
		}
	}
	p.advance(now)
	m, size := p.bySeq.get(seq)
	if m == nil {
		return // MI already finalized: the straggler counts as lost
	}
	m.acked++
	m.ackedBytes += int64(size)
	if rtt > 0 {
		tr := now - m.start
		m.sumT += tr
		m.sumT2 += tr * tr
		m.sumTR += tr * rtt
		m.rttSum += rtt
		m.rttCnt++
	}
	p.TotalAcked++
	p.bySeq.del(seq)
}

// OnLost implements cc.RateAlgo. PCC needs no explicit loss signal: the
// monitor counts a packet lost when its MI finalizes without an ACK.
func (p *PCC) OnLost(seq int64, now float64) {}
