package core

import (
	"math"
	"math/rand"
	"testing"
)

// captureUtility records every finalized MI's stats so tests can audit the
// monitor's byte accounting directly. It scores an MI with inner when set,
// else by its throughput.
type captureUtility struct {
	stats []MIStats
	inner Utility
}

func (c *captureUtility) Name() string { return "capture" }
func (c *captureUtility) Eval(m MIStats) float64 {
	c.stats = append(c.stats, m)
	if c.inner != nil {
		return c.inner.Eval(m)
	}
	return m.Throughput
}

// TestSubMSSPacketCreditedTrueSize is the tentpole regression for
// size-accurate accounting: a flow of 700-byte packets must have every ACK
// credited exactly 700 bytes in its MI stats — not the 1500-byte MSS the
// monitor used to assume — so measured throughput equals measured sent
// bytes on a lossless path.
func TestSubMSSPacketCreditedTrueSize(t *testing.T) {
	capt := &captureUtility{}
	const size = 700
	cfg := SizedConfig(0.03, size)
	cfg.Utility = capt
	p := New(cfg, rand.New(rand.NewSource(1)))
	p.Start(0)
	now := 0.0
	seq := int64(0)
	for now < 1.0 {
		r := p.Rate(now)
		p.OnSend(seq, size, now)
		p.OnAck(seq, 0.03, now+0.03)
		seq++
		now += size / r
	}
	p.Rate(now + 5) // flush finalization
	if len(capt.stats) == 0 {
		t.Fatal("no MI finalized")
	}
	sawAck := false
	for _, s := range capt.stats {
		sentBytes := s.Rate * s.Duration
		ackedBytes := s.Throughput * s.Duration
		if math.Abs(sentBytes-float64(s.Sent*size)) > 1e-6 {
			t.Fatalf("MI sent bytes %.1f, want %d (%d packets x %d B)", sentBytes, s.Sent*size, s.Sent, size)
		}
		if math.Abs(ackedBytes-float64(s.Acked*size)) > 1e-6 {
			t.Fatalf("MI acked bytes %.1f, want %d (%d acks x %d B) — ACKs credited a foreign size",
				ackedBytes, s.Acked*size, s.Acked, size)
		}
		if s.Acked > 0 {
			sawAck = true
		}
	}
	if !sawAck {
		t.Fatal("no MI recorded any acknowledged packets")
	}
}

// TestMixedSizesWithinOneMI checks the per-packet ledger inside a single
// monitor interval: when a full-size packet and a short tail packet share
// an MI (the real transport's final chunk), each ACK credits its own size.
func TestMixedSizesWithinOneMI(t *testing.T) {
	capt := &captureUtility{}
	cfg := DefaultConfig(0.03)
	cfg.Utility = capt
	p := New(cfg, rand.New(rand.NewSource(1)))
	p.Start(0)
	p.OnSend(0, 1400, 0.01)
	p.OnSend(1, 137, 0.02) // short final chunk
	p.OnAck(0, 0.03, 0.04)
	p.OnAck(1, 0.03, 0.05)
	// Close and finalize the interval well past every deadline.
	p.Rate(60)
	if len(capt.stats) == 0 {
		t.Fatal("no MI finalized")
	}
	s := capt.stats[0]
	const want = 1400 + 137
	if got := s.Throughput * s.Duration; math.Abs(got-want) > 1e-6 {
		t.Fatalf("MI acked bytes %.1f, want %d", got, want)
	}
	if got := s.Rate * s.Duration; math.Abs(got-want) > 1e-6 {
		t.Fatalf("MI sent bytes %.1f, want %d", got, want)
	}
}

// TestPendingFinalizeOrderShrinkingSRTT reproduces the head-blocking bug:
// finalize deadlines are end + FinalizeRTTs·srtt with a moving srtt, so an
// MI closed while the RTT estimate was huge can carry a later deadline than
// an MI closed afterwards. The pending list must finalize by deadline, not
// close order.
func TestPendingFinalizeOrderShrinkingSRTT(t *testing.T) {
	p := New(DefaultConfig(0.1), rand.New(rand.NewSource(1)))
	p.Start(0)
	// MI 0 closes while srtt is enormous: deadline lands far in the future.
	p.OnSend(0, MSS, 0.1)
	p.srtt = 10
	p.closeMI(1.0)
	// MI 1 closes after the estimate collapsed: its deadline precedes MI 0's.
	p.OnSend(1, MSS, 1.1)
	p.srtt = 0.01
	p.closeMI(1.5)
	if len(p.pending) != 2 || p.pending[0].id != 1 || p.pending[1].id != 0 {
		ids := make([]int64, len(p.pending))
		for i, m := range p.pending {
			ids[i] = m.id
		}
		t.Fatalf("pending not deadline-sorted: ids %v (deadlines should order 1 before 0)", ids)
	}
	// Advance past MI 1's deadline but far before MI 0's: the expired MI
	// must finalize even though the older MI is still within its deadline.
	p.advance(2.0)
	for _, m := range p.pending[p.pendHead:] {
		if m.id == 1 {
			t.Fatal("expired MI 1 still pending behind MI 0's later deadline")
		}
	}
	if p.TotalLostAtFinalize != 1 {
		t.Fatalf("TotalLostAtFinalize = %d, want 1 (MI 1's unacked packet)", p.TotalLostAtFinalize)
	}
	found0 := false
	for _, m := range p.pending[p.pendHead:] {
		if m.id == 0 {
			found0 = true
		}
	}
	if !found0 {
		t.Fatal("MI 0 finalized before its deadline passed")
	}
}

// TestSizedConfigScalesToPacketSize pins the SizedConfig derivations: the
// initial rate and floor are 2 packets per RTT / per second at the flow's
// size, and New recovers the caller's RTT hint from them.
func TestSizedConfigScalesToPacketSize(t *testing.T) {
	cfg := SizedConfig(0.05, 512)
	if cfg.PacketSize != 512 {
		t.Fatalf("PacketSize = %d, want 512", cfg.PacketSize)
	}
	if want := 2 * 512 / 0.05; cfg.InitialRate != want {
		t.Fatalf("InitialRate = %v, want %v", cfg.InitialRate, want)
	}
	if cfg.MinRate != 2*512 {
		t.Fatalf("MinRate = %v, want %v", cfg.MinRate, 2*512.0)
	}
	p := New(cfg, rand.New(rand.NewSource(1)))
	if math.Abs(p.SRTT()-0.05) > 1e-12 {
		t.Fatalf("srtt inferred as %v, want the 0.05 hint", p.SRTT())
	}
	// The default size must behave exactly as DefaultConfig (byte-identical
	// reports depend on it).
	d, ref := SizedConfig(0.05, MSS), DefaultConfig(0.05)
	if d.PacketSize != ref.PacketSize || d.InitialRate != ref.InitialRate || d.MinRate != ref.MinRate {
		t.Fatalf("SizedConfig(rtt, MSS) diverged from DefaultConfig: %+v vs %+v", d, ref)
	}
}
