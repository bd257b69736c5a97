package baseline

// PCP implements the probe-and-jump endpoint congestion control of
// Anderson et al. (NSDI '06), the §4.1.1/§5 comparator: the sender
// periodically emits a short packet train at a candidate rate above its
// current rate and uses delay evidence from the train to decide whether
// that bandwidth is available; on success it jumps directly to the
// candidate rate, on failure it backs off proportionally.
//
// The real PCP measures train dispersion at the receiver. This
// reconstruction uses the RTT progression across the train — queue buildup
// during the train inflates successive RTTs by the amount the candidate
// rate exceeds available bandwidth — which has the same failure mode the
// paper observes: latency jitter from queueing (including the flow's own)
// corrupts the estimate and PCP systematically under-uses clean links.
type PCP struct {
	rate      float64
	probing   bool
	probeRate float64
	baseRate  float64
	nextProbe float64
	trainSent int
	trainAcks int
	firstRTT  float64
	lastRTT   float64
	minRTT    float64
	maxSeq    int64
	lastDec   int64
	started   bool
}

// PCP's probing parameters.
const (
	pcpProbeInterval  float64 = 0.2 // seconds between probe trains
	pcpTrainLen               = 8   // packets inspected per probe
	pcpAggressiveness float64 = 1.5 // candidate-rate multiplier
)

// NewPCP builds a PCP sender starting at initRate bytes/s.
func NewPCP(initRate float64) *PCP {
	if initRate <= 0 {
		initRate = 1e6 / 8 // PCP's 1 Mbps initial rate from the paper's footnote
	}
	return &PCP{rate: initRate, minRTT: 1e9}
}

// Reset restores the state NewPCP(initRate) builds, in place.
func (p *PCP) Reset(initRate float64) { *p = *NewPCP(initRate) }

// Start implements cc.RateAlgo.
func (p *PCP) Start(now float64) {
	p.started = true
	p.nextProbe = now + pcpProbeInterval
}

// Rate implements cc.RateAlgo.
func (p *PCP) Rate(now float64) float64 {
	if !p.probing && now >= p.nextProbe {
		p.probing = true
		p.baseRate = p.rate
		p.probeRate = p.rate * pcpAggressiveness
		p.trainSent = 0
		p.trainAcks = 0
		p.firstRTT = 0
		p.lastRTT = 0
	}
	if p.probing {
		return p.probeRate
	}
	return p.rate
}

// OnSend implements cc.RateAlgo.
func (p *PCP) OnSend(seq int64, size int, now float64) {
	if seq > p.maxSeq {
		p.maxSeq = seq
	}
	if p.probing {
		p.trainSent++
	}
}

// OnAck implements cc.RateAlgo: collects the RTT progression of the probe
// train and concludes the probe when enough evidence arrived.
func (p *PCP) OnAck(seq int64, rtt float64, now float64) {
	if rtt > 0 && rtt < p.minRTT {
		p.minRTT = rtt
	}
	if !p.probing || rtt <= 0 {
		return
	}
	if p.firstRTT == 0 {
		p.firstRTT = rtt
	}
	p.lastRTT = rtt
	p.trainAcks++
	if p.trainAcks < pcpTrainLen {
		return
	}
	// Probe verdict: if the queue grew by less than a quarter of the
	// train's own duration, the candidate bandwidth is deemed available.
	trainDur := float64(pcpTrainLen) * 1500 / p.probeRate
	growth := p.lastRTT - p.firstRTT
	if growth < 0.25*trainDur {
		p.rate = p.probeRate
	} else {
		// Failed probe: proportional back-off toward the evidence.
		est := p.baseRate * trainDur / (trainDur + growth)
		if est < p.rate {
			p.rate = est
		}
		if p.rate < 2*1500 {
			p.rate = 2 * 1500
		}
	}
	p.probing = false
	p.nextProbe = now + pcpProbeInterval
}

// OnLost implements cc.RateAlgo: PCP treats loss as strong congestion
// evidence and halves, at most once per flight.
func (p *PCP) OnLost(seq int64, now float64) {
	if p.probing {
		p.probing = false
		p.nextProbe = now + pcpProbeInterval
	}
	if seq > p.lastDec {
		p.rate /= 2
		if p.rate < 2*1500 {
			p.rate = 2 * 1500
		}
		p.lastDec = p.maxSeq
	}
}
