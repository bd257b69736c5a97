package exp

import (
	"strings"
	"time"
)

// TrialScratch is a per-worker trial arena: a cache of fully built Runners
// keyed by experiment-variant, so the hundreds of short trials a Monte-Carlo
// sweep runs (§4's evaluation is sweeps by construction) reuse their
// engine, topology, flows, PCC/TCP state and packet pool instead of
// rebuilding them from scratch every trial: a warm trial — a cache hit
// whose flows keep their protocols — allocates nothing in the harness,
// finding the runner included (arena_test.go pins zero for every protocol).
// The pool hands each worker goroutine one scratch for its whole
// slice of the sweep (see pool.go), so arenas are strictly goroutine-local,
// like everything else a trial owns.
//
// Reuse is placement-policy only. A cache hit re-specs the cached runner in
// place — engine reset, links/queues re-parameterized, seed chain rewound,
// flows reset — and a miss builds an empty skeleton and runs that same
// respec on it, so a trial's results are bit-identical whether it hit or
// missed the cache (the determinism suite exercises this directly:
// different worker counts produce entirely different hit patterns, yet
// reports must match byte-for-byte).
//
// The key identifies an experiment variant within one driver: trials whose
// network/flow structure matches should share a key (their parameter
// differences — rates, delays, losses, buffer sizes, flow counts, PCC
// configs — are all re-specced per trial); structurally different variants
// (different protocol mix, different link graph) should use distinct keys
// so alternating trials do not evict each other's warm state. Keys are a
// performance hint only: structure is verified on every hit, and a
// mismatch (queue kind, link graph, per-flow sender category or route
// shape) falls back to a fresh build or per-flow rebuild with identical
// semantics.
type TrialScratch struct {
	runners map[runnerKey]*Runner
	// link is where Runner spells a PathSpec out as a one-link TopologySpec.
	link [1]LinkSpec
	// f64 is a general float64 scratch drivers may use for per-trial series
	// (SeriesMbpsInto, metrics.SortInto) between runner builds.
	f64 []float64

	// prov is the trial provenance the running trial stamped via Stamp. The
	// trial runs on the pool's goroutine, so the pool reads it there.
	prov TrialProvenance

	// watch is the running trial's stop condition and deadline its
	// wall-clock end when a watchdog is armed; the pool arms both per trial.
	// halt records why stopped first reported true, until the next arm.
	// stopFn is the method value ts.stopped, bound once: the predicate every
	// engine the arena hands out polls.
	watch    trialWatch
	deadline time.Time
	halt     haltCause
	stopFn   func() bool
}

// trialWatch is what stops a sweep's trials: its context's done channel (nil
// when it cannot be cancelled) and the per-trial watchdog timeout (0 = none).
type trialWatch struct {
	done    <-chan struct{}
	timeout time.Duration
}

// haltCause is why a trial's engines stopped.
type haltCause uint8

const (
	haltNone haltCause = iota
	haltCancelled
	haltTimeout
)

// TrialProvenance identifies one trial for replay: the experiment and
// variant the driver stamped plus the per-trial seed.
type TrialProvenance struct {
	Exp, Variant string
	Seed         int64
}

// Stamp records the running trial's provenance. Drivers with per-trial
// seeds call it at the top of each trial function (chainTrial does it for
// the chain drivers); the pool copies the stamp into the TrialPanicError or
// TrialTimeoutError produced when that trial panics or is stopped by its
// watchdog, so a crash deep inside a Monte-Carlo sweep reports which
// experiment, variant and seed to replay instead of an anonymous stack from
// a worker goroutine. The pool clears the stamp before every trial, and
// RunCtx names the experiment of a failure no trial stamped.
func (ts *TrialScratch) Stamp(exp, variant string, seed int64) {
	ts.prov = TrialProvenance{Exp: exp, Variant: variant, Seed: seed}
}

// arm readies the arena for the next trial under w: provenance cleared, the
// deadline set when a watchdog is armed, no halt recorded.
func (ts *TrialScratch) arm(w trialWatch) {
	ts.prov = TrialProvenance{}
	ts.watch, ts.halt = w, haltNone
	if w.timeout > 0 {
		ts.deadline = time.Now().Add(w.timeout)
	}
}

// stopped is the stop predicate of every engine the arena hands out (see
// sim.Engine.SetStop), and the pool's own trial-boundary check: it reports
// whether the sweep was cancelled or the trial's watchdog deadline passed,
// and records which came first. The clock is read only here, once per
// 1024 engine events, so a watchdog needs neither a timer nor a goroutine.
func (ts *TrialScratch) stopped() bool {
	if ts.halt == haltNone {
		select {
		case <-ts.watch.done:
			ts.halt = haltCancelled
		default:
			if ts.watch.timeout > 0 && time.Now().After(ts.deadline) {
				ts.halt = haltTimeout
			}
		}
	}
	return ts.halt != haltNone
}

// runnerKey is the arena's cache key: the caller's variant key qualified by
// entry point (Runner and TopologyRunner callers never share a runner) and,
// for dumbbells, queue kind (a queue kind change under one caller key would
// otherwise rebuild on every alternation). A struct key lets a lookup hash
// the parts in place instead of concatenating them.
type runnerKey struct {
	topology   bool
	queue, key string
}

// maxArenaRunners bounds the cached simulations per worker. Real drivers
// use a handful of variant keys; the flush is a backstop so a pathological
// key choice degrades to fresh builds instead of unbounded retention.
const maxArenaRunners = 32

// Runner returns a dumbbell runner for the given path: the cached one for
// key, re-specced in place, or a freshly built one on first use (or when
// the queue kind changed under the key).
func (ts *TrialScratch) Runner(key string, p PathSpec) *Runner {
	r := ts.runner(false, p.QueueKind, key, p.oneLink(&ts.link))
	r.Path = p
	return r
}

// TopologyRunner is Runner for general multi-link topologies. The cached
// runner is reused when the spec's link structure (names, endpoints, queue
// kinds) matches the cached build; parameters are re-specced per trial.
func (ts *TrialScratch) TopologyRunner(key string, spec TopologySpec) *Runner {
	return ts.runner(true, "", key, spec)
}

// runner finds, respecs and returns the cached runner for a key, or builds
// and caches a fresh one when there is none or its skeleton does not match
// the spec. The lookup and the cached key are separate literals, and the
// cached one holds a private copy of the caller's string: one value serving
// both would make the caller's key escape, and a driver assembling a short
// key per trial could no longer do it on its stack.
func (ts *TrialScratch) runner(topology bool, queue, key string, spec TopologySpec) *Runner {
	if r := ts.runners[runnerKey{topology, queue, key}]; r != nil && r.matches(spec) {
		r.respec(spec)
		r.Eng.SetStop(ts.stopFn)
		return r
	}
	if ts.runners == nil {
		ts.runners = make(map[runnerKey]*Runner)
		ts.stopFn = ts.stopped
	} else if len(ts.runners) >= maxArenaRunners {
		clear(ts.runners)
	}
	r := NewTopologyRunner(spec)
	r.Eng.SetStop(ts.stopFn)
	ts.runners[runnerKey{topology, queue, strings.Clone(key)}] = r
	return r
}
