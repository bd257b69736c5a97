package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pcc/internal/exp"
	"pcc/internal/netem"
)

// churnProtos cycle over the trial index; with churnSeeds recurring seeds
// that is a grid of 24 distinct trials, repeated.
var churnProtos = []string{"pcc", "cubic", "newreno"}

const churnSeeds = 8

// churnPath is the incast-style dumbbell of RunFig10: 1 Gbps, 1 ms RTT, a
// 64 KB switch buffer.
func churnPath(seed int64) exp.PathSpec {
	return exp.PathSpec{RateMbps: 1000, RTT: 0.001, BufBytes: 64 * netem.KB, Seed: seed}
}

// churnFlows and churnFlowKB size one trial: 4 senders of 8 KB each.
const (
	churnFlows  = 4
	churnFlowKB = 8
)

// churnPoint maps a trial index to its protocol and seed.
func churnPoint(seed int64, i int) (proto string, trialSeed int64) {
	return churnProtos[i%len(churnProtos)], seed + int64(i/len(churnProtos)%churnSeeds)*131
}

// churnRespec takes the arena runner for one trial and adds its flows.
func churnRespec(ts *exp.TrialScratch, key, proto string, seed int64, flows []*exp.Flow) *exp.Runner {
	runner := ts.Runner(key+proto, churnPath(seed))
	for k := range flows {
		flows[k] = runner.AddFlow(exp.FlowSpec{Proto: proto, FlowKB: churnFlowKB})
	}
	return runner
}

// churnResult is a finished trial's goodput in Mbps, or -1 when a flow did
// not complete (a failed operation).
func churnResult(flows []*exp.Flow) float64 {
	var last float64
	var bytes int64
	for _, f := range flows {
		if f.DoneAt <= 0 {
			return -1
		}
		bytes += f.Recv.UniqueBytes()
		last = math.Max(last, f.DoneAt)
	}
	return netem.ToMbps(float64(bytes) / last)
}

// churnTrace accumulates per-trial time and counters across workers on a
// traced run; a round flushes it as one span per layer.
type churnTrace struct {
	respecNS, runNS, trials atomic.Int64
	mu                      sync.Mutex
	counters                simCounters
	links, conserved        int
}

// flush records what the workers accumulated during one sweep as two spans
// under it, respec then run. Worker time is divided by the worker count, so
// the spans are wall-equivalent and what is left of the sweep's own span is
// the pool's dispatch and imbalance.
func (ct *churnTrace) flush(tr *tracer, sweep, round int) {
	if ct == nil {
		return
	}
	workers := time.Duration(exp.Workers())
	trials := ct.trials.Swap(0)
	respec := time.Duration(ct.respecNS.Swap(0)) / workers
	run := time.Duration(ct.runNS.Swap(0)) / workers
	tr.aggregate("TrialScratch.Runner+AddFlow", "exp", sweep, round, trials, 0, respec)
	tr.aggregate("Runner.Run", "sim", sweep, round, trials, respec, run)
}

// churnSweep runs trials 0..n-1 of the grid through the pool at default
// workers, as one driver call does, and returns their goodputs.
func churnSweep(n int, key string, seed int64, ct *churnTrace) []float64 {
	return exp.RunPointsScratch(n, func(i int, ts *exp.TrialScratch) float64 {
		proto, trialSeed := churnPoint(seed, i)
		var flows [churnFlows]*exp.Flow
		if ct == nil {
			churnRespec(ts, key, proto, trialSeed, flows[:]).Run(60)
			return churnResult(flows[:])
		}
		t0 := time.Now()
		runner := churnRespec(ts, key, proto, trialSeed, flows[:])
		t1 := time.Now()
		runner.Run(60)
		t2 := time.Now()
		ct.respecNS.Add(int64(t1.Sub(t0)))
		ct.runNS.Add(int64(t2.Sub(t1)))
		ct.trials.Add(1)
		conserved, stats := 0, runner.Topo.Stats()
		for _, st := range stats {
			if st.Conserved() {
				conserved++
			}
		}
		ct.mu.Lock()
		ct.counters.add(runner, flows[:])
		ct.links += len(stats)
		ct.conserved += conserved
		ct.mu.Unlock()
		return churnResult(flows[:])
	})
}

// fingerprint hashes a sweep's results so sweeps can be compared cheaply.
func fingerprint(v []float64) (hash uint64, failed int) {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		if x < 0 {
			failed++
		}
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64(), failed
}

// trialChurn is a Monte-Carlo grid of tiny trials: 4 flows of 8 KB on the
// incast dumbbell, protocol cycling pcc/cubic/newreno over 8 recurring
// seeds, pushed through exp.RunPointsScratch at default workers in sweeps of
// a fixed size. A trial runs for microseconds, so the pool, the arena respec
// and sim.Engine.Reset are about half of it: where wan_trial is one long
// steady run, this is reset after reset.
//
// Set-up is a cold arena build under a fresh key plus a quarter-round
// warm-up. Operations are trials; op_ms_mid and op_ms_tail are the typical
// and 99th-percentile latency of one sweep call.
func trialChurn(r *run) {
	sz := r.sz
	n := sz.ChurnSweepTrials
	var key string
	for i := 0; i < sz.SetupReps; i++ {
		r.setup(func() {
			key = fmt.Sprintf("bench-churn/%d/", i)
			for s := 0; s < max(1, sz.ChurnSweeps/4); s++ {
				churnSweep(n, key, r.o.seed, nil)
			}
		})
	}

	var ct *churnTrace
	if r.o.trace {
		ct = new(churnTrace)
	}
	var sweepMS, trialsPerS []float64
	var want uint64
	for round := 0; round < sz.ChurnRounds; round++ {
		failed, mismatched := 0, 0
		r.round(func() {
			root := r.tr.begin("trial_churn", "bench", -1, round)
			for s := 0; s < sz.ChurnSweeps; s++ {
				sp := r.tr.begin("exp.RunPointsScratch", "exp", root, round)
				t0 := time.Now()
				out := churnSweep(n, key, r.o.seed, ct)
				sweepMS = append(sweepMS, time.Since(t0).Seconds()*1000)
				r.tr.end(sp)
				ct.flush(r.tr, sp, round)
				got, bad := fingerprint(out)
				failed += bad
				if round == 0 && s == 0 {
					want = got
					r.digest("goodputs", []byte(fmt.Sprint(out)))
				} else if got != want {
					mismatched++
				}
			}
			r.tr.end(root)
		})
		trials := n * sz.ChurnSweeps
		trialsPerS = append(trialsPerS, float64(trials)/r.walls[len(r.walls)-1])
		r.attempt(trials, failed, "trials")
		r.check(mismatched == 0, "round %d: %d sweeps differ from the first sweep", round+1, mismatched)
	}

	// The same sweep at one worker must give the same results.
	exp.SetWorkers(1)
	one, _ := fingerprint(churnSweep(n, key, r.o.seed, nil))
	exp.SetWorkers(0)
	r.check(one == want, "sweep at 1 worker differs from default workers")

	if ct != nil {
		ct.counters.record(r, sum(r.walls))
		r.set("netem.conserved_frac", float64(ct.conserved)/float64(max(1, ct.links)))
		r.check(ct.conserved == ct.links, "%d of %d link ledgers conserve bytes", ct.conserved, ct.links)
	}
	sorted := sortedCopy(sweepMS)
	r.set("ops_per_s", slices.Max(trialsPerS), trialsPerS...)
	r.set("op_ms_mid", midMean(sorted), sweepMS...)
	r.set("op_ms_tail", percentileSorted(sorted, 99))
}
