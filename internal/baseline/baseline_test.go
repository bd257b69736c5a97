package baseline

import "testing"

func TestSabulIncreasesWithoutLoss(t *testing.T) {
	s := NewSabul(12.5e6) // 100 Mbps capacity
	s.Start(0)
	r0 := s.Rate(0)
	r1 := s.Rate(1.0) // one second of loss-free SYN intervals
	if r1 <= r0 {
		t.Fatalf("rate did not grow: %v -> %v", r0, r1)
	}
}

func TestSabulDecreasesOncePerEpoch(t *testing.T) {
	s := NewSabul(12.5e6)
	s.Start(0)
	s.OnSend(100, 1500, 0.1)
	r0 := s.Rate(0.1)
	s.OnLost(50, 0.1)
	r1 := s.Rate(0.1)
	if r1 >= r0 {
		t.Fatal("first loss must decrease the rate")
	}
	// Losses below the epoch boundary are absorbed.
	s.OnLost(60, 0.1)
	if got := s.Rate(0.1); got != r1 {
		t.Fatalf("same-epoch loss changed rate: %v -> %v", r1, got)
	}
	// A loss beyond the epoch (new flight) decreases again.
	s.OnSend(200, 1500, 0.11)
	s.OnLost(150, 0.11)
	if got := s.Rate(0.11); got >= r1 {
		t.Fatalf("new-epoch loss did not decrease rate: %v", got)
	}
}

func TestSabulRateFloor(t *testing.T) {
	s := NewSabul(12.5e6)
	s.Start(0)
	for i := int64(0); i < 1000; i++ {
		s.OnSend(i*10, 1500, 0)
		s.OnLost(i*10, 0)
	}
	if s.Rate(0) < 2*1500 {
		t.Fatalf("rate %v fell below floor", s.Rate(0))
	}
}

func TestPCPJumpsOnCleanProbe(t *testing.T) {
	p := NewPCP(1e6)
	p.Start(0)
	p.nextProbe = 0
	r0 := p.rate
	// Probe begins on the next Rate poll.
	if got := p.Rate(0.01); got <= r0 {
		t.Fatalf("probe rate %v not above base %v", got, r0)
	}
	// Deliver a clean train: constant RTT → success → jump.
	for i := int64(0); i < pcpTrainLen; i++ {
		p.OnSend(i, 1500, 0.01)
		p.OnAck(i, 0.030, 0.02)
	}
	if p.rate <= r0 {
		t.Fatalf("clean probe did not raise rate: %v", p.rate)
	}
}

func TestPCPBacksOffOnQueueingEvidence(t *testing.T) {
	p := NewPCP(1e6)
	p.Start(0)
	p.nextProbe = 0
	p.Rate(0.01)
	r0 := p.baseRate
	// RTT grows sharply across the train: candidate unavailable.
	for i := int64(0); i < pcpTrainLen; i++ {
		p.OnSend(i, 1500, 0.01)
		p.OnAck(i, 0.030+float64(i)*0.005, 0.02)
	}
	if p.rate > r0 {
		t.Fatalf("congested probe raised rate: %v > %v", p.rate, r0)
	}
}

func TestPCPHalvesOncePerFlightOnLoss(t *testing.T) {
	p := NewPCP(8e6)
	p.Start(0)
	p.OnSend(100, 1500, 0)
	r0 := p.rate
	p.OnLost(50, 0)
	if p.rate >= r0 {
		t.Fatal("loss did not halve")
	}
	r1 := p.rate
	p.OnLost(60, 0)
	if p.rate != r1 {
		t.Fatal("second same-flight loss halved again")
	}
}
