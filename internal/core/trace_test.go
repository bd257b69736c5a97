package core

import (
	"container/heap"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/pcc_trace.sha256 instead of comparing against it")

const traceDigests = "testdata/pcc_trace.sha256"

// traceSchedule is one seeded synthetic path a PCC sender is driven over:
// a bottleneck of capacity bytes/s that delivers capacity/rate of what is
// sent above it, an RTT that inflates with the overload, ACKs dropped with
// probability ackLoss and delayed by up to jitter (which reorders them),
// and optionally an idle gap opened in the middle of an RCT round.
type traceSchedule struct {
	name     string
	seed     int64
	cfg      Config
	inner    Utility // the utility the controller decides on; nil = throughput
	capacity float64
	dur      float64
	ackLoss  float64
	jitter   float64
	rtt      func(now float64) float64 // base RTT of a packet sent at now
	idle     float64                   // > 0: one send-free gap of this length mid-round
}

// pendingAck is an ACK in flight towards the sender.
type pendingAck struct {
	at, rtt float64
	seq     int64
}

type ackHeap []pendingAck

func (h ackHeap) Len() int { return len(h) }
func (h ackHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h ackHeap) Swap(i, j int)        { h[i], h[j] = h[j], h[i] }
func (h *ackHeap) Push(x any)          { *h = append(*h, x.(pendingAck)) }
func (h *ackHeap) Pop() (x any)        { x, *h = (*h)[len(*h)-1], (*h)[:len(*h)-1]; return x }
func (h ackHeap) due(now float64) bool { return len(h) > 0 && h[0].at <= now }

// runTrace drives one schedule through Rate/OnSend/OnAck and returns the
// trace: every Rate poll's answer and every finalized MI's stats, one line
// each, floats in Go's exact shortest form.
func runTrace(s traceSchedule) string {
	capt := &captureUtility{inner: s.inner}
	cfg := s.cfg
	cfg.Utility = capt
	p := New(cfg, rand.New(rand.NewSource(s.seed)))
	net := rand.New(rand.NewSource(s.seed + 1))
	var b strings.Builder
	emitted := 0
	poll := func(now float64) float64 {
		r := p.Rate(now)
		fmt.Fprintf(&b, "R %v %v\n", now, r)
		for ; emitted < len(capt.stats); emitted++ {
			fmt.Fprintf(&b, "S %+v\n", capt.stats[emitted])
		}
		return r
	}
	var acks ackHeap
	deliver := func(now float64) {
		for acks.due(now) {
			a := heap.Pop(&acks).(pendingAck)
			p.OnAck(a.seq, a.rtt, a.at)
		}
	}

	p.Start(0)
	now, seq, credit, idled := 0.0, int64(0), 0.0, false
	for now < s.dur {
		deliver(now)
		if s.idle > 0 && !idled && p.ctl.State() == StateDecision &&
			p.ctl.trialsLeft > 0 && p.ctl.trialsLeft < p.ctl.numTrials() {
			// Mid-round: send nothing for s.idle, polling as a paced
			// sender's timer would, so MIs open and close empty.
			idled = true
			for end := now + s.idle; now < end; now += 0.005 {
				deliver(now)
				poll(now)
			}
			continue
		}
		r := poll(now)
		p.OnSend(seq, MSS, now)
		if credit += min(1, s.capacity/r); credit >= 1 {
			credit--
			if net.Float64() >= s.ackLoss {
				rtt := s.rtt(now) * (1 + 0.5*max(0, r/s.capacity-1))
				at := now + rtt + s.jitter*net.Float64()
				heap.Push(&acks, pendingAck{at: at, rtt: at - now, seq: seq})
			}
		}
		seq++
		now += MSS / r
	}
	deliver(now + 60)
	poll(now + 60) // flush every pending MI past its deadline
	fmt.Fprintf(&b, "T sent=%d acked=%d lost=%d mis=%d decisions=%d reversions=%d inconclusive=%d\n",
		p.TotalSent, p.TotalAcked, p.TotalLostAtFinalize, p.MICount,
		p.ctl.Decisions(), p.ctl.Reversions(), p.ctl.Inconclusive())
	return b.String()
}

func traceSchedules() []traceSchedule {
	const mbps = 1e6 / 8
	flat := func(rtt float64) func(float64) float64 { return func(float64) float64 { return rtt } }
	return []traceSchedule{
		{name: "ackloss20", seed: 1, cfg: DefaultConfig(0.03), capacity: 20 * mbps, dur: 8,
			ackLoss: 0.2, rtt: flat(0.03)},
		{name: "reordered", seed: 2, cfg: DefaultConfig(0.03), inner: defaultSafeUtility,
			capacity: 20 * mbps, dur: 8, ackLoss: 0.01, jitter: 0.02, rtt: flat(0.03)},
		{name: "shrinking-srtt", seed: 3, cfg: DefaultConfig(0.4), inner: defaultSafeUtility,
			capacity: 10 * mbps, dur: 8, rtt: func(now float64) float64 {
				if now < 2 {
					return 0.4
				}
				return 0.01
			}},
		{name: "idle-mid-round", seed: 4, cfg: DefaultConfig(0.03), inner: defaultSafeUtility,
			capacity: 20 * mbps, dur: 8, ackLoss: 0.02, rtt: flat(0.03), idle: 0.5},
		{name: "norct-interactive", seed: 5, cfg: func() Config {
			c := InteractiveConfig(0.02)
			c.NoRCT = true
			return c
		}(), inner: &LatencyUtility{}, capacity: 5 * mbps, dur: 6, ackLoss: 0.05, jitter: 0.005, rtt: flat(0.02)},
	}
}

// TestPCCTraceGolden pins the monitor and the controller together: the
// SHA-256 of each schedule's trace (every Rate poll and every finalized MI's
// stats) must equal the checked-in digest. A refactor of the MI ledger or of
// the controller's bookkeeping passes it untouched; a change that means to
// move a decision rewrites the file with -update and says so. Pinned to
// amd64, as exp's report digests are: other architectures may fuse
// multiply-adds and legitimately differ in the last bit.
func TestPCCTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	var got strings.Builder
	for _, s := range traceSchedules() {
		tr := runTrace(s)
		if !strings.Contains(tr, "\nS ") {
			t.Fatalf("%s: no MI finalized", s.name)
		}
		fmt.Fprintf(&got, "%s %x\n", s.name, sha256.Sum256([]byte(tr)))
	}
	if *update {
		if err := os.WriteFile(traceDigests, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceDigests)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("trace digests moved:\n got:\n%s want:\n%s", got.String(), want)
	}
}
