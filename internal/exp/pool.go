package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel experiment engine. Every trial of every driver
// in this package is a self-contained deterministic simulation — it builds
// its own sim.Engine and derives every RNG stream from the PathSpec seed —
// so trials are embarrassingly parallel. runTrials fans a trial
// function out across runner goroutines while keeping results indexed
// by trial number, which makes the assembled report byte-identical to a
// sequential run regardless of goroutine scheduling (asserted by
// determinism_test.go).
//
// The pool is one process-wide budget of Workers() runners, shared by every
// sweep in flight: SetWorkers (the -par flag of pccbench and pccserve) when
// set, else GOMAXPROCS. A sweep's calling goroutine always runs that sweep's
// trials itself; helper goroutines join sweeps with unclaimed trials, oldest
// first, only while fewer than Workers() runners are busy. A lone sweep thus
// runs on Workers() goroutines, while pccserve's concurrent units share the
// budget (and its warm arenas) instead of each bringing a pool of their own.
// Trials are the only parallelism axis: each runs on one engine. The budget
// is the package's one process setting: the rest rides each call's context.

// workerOverride holds the SetWorkers value; 0 means "not set".
var workerOverride atomic.Int64

// SetWorkers overrides the process-wide trial budget: how many trials all
// sweeps together run at once. n <= 0 restores the default (GOMAXPROCS).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// Workers returns the process-wide trial budget sweeps share.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Config is the run-time setting of one experiment call, carried by its
// context (WithConfig) so concurrent calls each run under their own. The
// zero value means every default.
type Config struct {
	// Nodes and Flows pin the node and flow counts generated-topology
	// experiments (wan) target, rounded to a valid size; 0 derives them
	// from scale.
	Nodes, Flows int
	// TrialTimeout arms a per-trial watchdog that turns a hang into a
	// *TrialTimeoutError (see runTrial); 0 disables it.
	TrialTimeout time.Duration
}

type configKey struct{}

// WithConfig returns a context whose experiment calls and sweeps run under
// c. An inner WithConfig replaces an outer one whole.
func WithConfig(ctx context.Context, c Config) context.Context {
	return context.WithValue(ctx, configKey{}, c)
}

// configOf returns the Config ctx carries, else the zero Config.
func configOf(ctx context.Context) Config {
	c, _ := ctx.Value(configKey{}).(Config)
	return c
}

// gcRelax widens the garbage collector's heap-growth target while trials
// run. Every trial builds and discards a complete simulation (engine,
// windows, RNG states, packet pools), so an experiment sweep allocates tens
// of megabytes over a live set of a few; at the default GOGC that triggers
// a collection every few trials, and on small machines the mark phase's
// write barriers tax the simulator's hottest loops. Trading bounded heap
// headroom for throughput is the standard batch-job setting. The previous
// target is restored when the outermost sweep finishes; results are
// unaffected (GC timing is invisible to a deterministic simulation).
// Ablated on a 2-vCPU box (10 alternating pairs of pccbench's 24
// experiments at scale 0.1): without it wall time rose 8.8 % and CPU time
// 8.4 %, losing 8 of 10 pairs, while peak RSS fell from 80 to 65 MB.
var gcRelax struct {
	mu    sync.Mutex
	depth int
	prev  int
}

// gcRelaxPercent is the sweep-time GOGC target.
const gcRelaxPercent = 400

func enterGCRelax() {
	gcRelax.mu.Lock()
	gcRelax.depth++
	if gcRelax.depth == 1 {
		gcRelax.prev = debug.SetGCPercent(gcRelaxPercent)
	}
	gcRelax.mu.Unlock()
}

func exitGCRelax() {
	gcRelax.mu.Lock()
	gcRelax.depth--
	if gcRelax.depth == 0 {
		debug.SetGCPercent(gcRelax.prev)
	}
	gcRelax.mu.Unlock()
}

// TrialPanicError wraps a panic that escaped a trial function, carrying
// enough provenance to replay the failing trial in isolation: the experiment
// and variant the driver stamped on its TrialScratch, the per-trial seed
// and the trial index. Value is the original panic payload; Unwrap exposes
// it when it is an error, so errors.Is/As see through the wrapper.
type TrialPanicError struct {
	Experiment string
	Variant    string
	Seed       int64
	Trial      int
	Value      any
	// Stack is the panicking goroutine's stack, captured by debug.Stack at
	// recover() time, so a panic quarantined far from any terminal (e.g. in
	// pccserve's error ledger) stays debuggable after the goroutine is gone.
	Stack []byte
}

func (e *TrialPanicError) Error() string {
	return fmt.Sprintf("exp: trial %d panicked (experiment %s, variant %s, seed %d): %v",
		e.Trial, orUnknown(e.Experiment), orUnknown(e.Variant), e.Seed, e.Value)
}

// orUnknown returns s, or "?" for a provenance field the trial never set.
func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}

// Unwrap returns the panic payload when it was an error, nil otherwise.
func (e *TrialPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// TrialTimeoutError reports a trial that exceeded its sweep's watchdog
// deadline (Config.TrialTimeout, the -trialtimeout of pccbench and
// pccserve). It carries the same provenance fields as TrialPanicError, so a
// hang is as replayable as a crash. Go cannot kill the hung goroutine: it is
// abandoned together with its trial arena and the sweep aborts, which fails
// the sweep without corrupting the worker pool or any later sweep's state.
type TrialTimeoutError struct {
	Experiment string
	Variant    string
	Seed       int64
	Trial      int
	Timeout    time.Duration
}

func (e *TrialTimeoutError) Error() string {
	return fmt.Sprintf("exp: trial %d timed out after %v (experiment %s, variant %s, seed %d)",
		e.Trial, e.Timeout, orUnknown(e.Experiment), orUnknown(e.Variant), e.Seed)
}

// SweepCancelledError reports a sweep that stopped scheduling at a trial
// boundary because its context was cancelled (client disconnect, server
// deadline, SIGTERM drain). In-flight trials finish before the sweep
// returns, so the Completed slots of the caller's result slice hold valid
// partial results; the remaining slots were never started. Err is the
// context's cause and is exposed through Unwrap, so
// errors.Is(err, context.Canceled) works.
type SweepCancelledError struct {
	Completed int
	Total     int
	Err       error
}

func (e *SweepCancelledError) Error() string {
	return fmt.Sprintf("exp: sweep cancelled after %d/%d trials: %v", e.Completed, e.Total, e.Err)
}

func (e *SweepCancelledError) Unwrap() error { return e.Err }

// guardTrial runs one trial and converts any escaping panic into a returned
// *TrialPanicError stamped with the scratch's provenance fields, so the pool
// can abort a sweep with an error instead of unwinding worker goroutines.
// An already-typed panic is returned untouched (nested pools must not
// double-wrap).
func guardTrial(fn func(trial int, ts *TrialScratch), trial int, ts *TrialScratch) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *TrialPanicError:
			err = r
		case *TrialTimeoutError:
			err = r
		default:
			prov := ts.Provenance()
			err = &TrialPanicError{
				Experiment: prov.Exp,
				Variant:    prov.Variant,
				Seed:       prov.Seed,
				Trial:      trial,
				Value:      r,
				Stack:      debug.Stack(),
			}
		}
	}()
	fn(trial, ts)
	return nil
}

// runTrial executes one guarded trial and returns its failure as a typed
// error: *TrialPanicError if the trial panicked, *TrialTimeoutError if the
// watchdog deadline (timeout > 0) elapsed first, nil on success. When the
// watchdog is armed the trial runs on its own goroutine so the deadline can
// fire while it is stuck; on the timeout path that goroutine is abandoned
// still owning ts, so after any error the caller must neither reuse nor
// recycle that arena.
func runTrial(fn func(trial int, ts *TrialScratch), trial int, ts *TrialScratch, timeout time.Duration) error {
	if timeout <= 0 {
		return guardTrial(fn, trial, ts)
	}
	done := make(chan error, 1) // buffered: a post-deadline finish must not leak the goroutine
	go func() { done <- guardTrial(fn, trial, ts) }()
	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	select {
	case err := <-done:
		return err
	case <-watchdog.C:
		prov := ts.Provenance()
		return &TrialTimeoutError{
			Experiment: prov.Exp,
			Variant:    prov.Variant,
			Seed:       prov.Seed,
			Trial:      trial,
			Timeout:    timeout,
		}
	}
}

// scratchPool keeps TrialScratch arenas between busy periods. A long-lived
// process that runs sweep after sweep (pccserve, pccbench -exp all)
// re-acquires warm arenas whose cached runners were built by earlier
// sweeps, so repeated requests skip the first-trial build cost. Reuse is
// placement-policy only: arena hits verify structure and re-spec every
// parameter (see arena.go). Like any sync.Pool it drops what stays unused
// across two garbage collections, so a process that stops running sweeps
// gives the memory back.
var scratchPool = sync.Pool{New: func() any { return new(TrialScratch) }}

// trialPool is the process-wide trial budget every sweep draws on, and the
// shelf of warm arenas its runners share.
var trialPool struct {
	mu sync.Mutex
	// running counts the goroutines working on a sweep: every sweep's
	// caller plus every helper. held counts the budget tokens they hold,
	// at most limit, which is Workers() as the latest sweep found it.
	running, held, limit atomic.Int64
	// open holds the sweeps that may take helpers, oldest first; guarded
	// by mu.
	open []*sweep
	// idle shelves, while any runner is busy, the arenas no runner holds;
	// guarded by mu. Only token holders take arenas from it, and one shelf
	// serves every CPU (a sync.Pool hands an arena put on one CPU to a Get
	// on another only sometimes), so at most limit warm arenas circulate
	// however many sweeps are in flight. When the last runner leaves, the
	// shelf moves to scratchPool.
	idle []*TrialScratch
}

// takeArenaLocked takes the most recently shelved arena, else one from
// scratchPool. trialPool.mu must be held.
func takeArenaLocked() *TrialScratch {
	if k := len(trialPool.idle); k > 0 {
		ts := trialPool.idle[k-1]
		trialPool.idle = trialPool.idle[:k-1]
		return ts
	}
	return scratchPool.Get().(*TrialScratch)
}

// leaveLocked counts a runner out; the last one out moves the shelf to
// scratchPool. trialPool.mu must be held.
func leaveLocked() {
	if trialPool.running.Add(-1) > 0 {
		return
	}
	for _, ts := range trialPool.idle {
		scratchPool.Put(ts)
	}
	clear(trialPool.idle)
	trialPool.idle = trialPool.idle[:0]
}

// takeToken takes one of the budget's tokens if one is free.
func takeToken() bool {
	for h := trialPool.held.Load(); h < trialPool.limit.Load(); h = trialPool.held.Load() {
		if trialPool.held.CompareAndSwap(h, h+1) {
			return true
		}
	}
	return false
}

// runner is one goroutine's hold on the pool: its arena, whether it holds
// a budget token, and whether it is a helper rather than a sweep's caller.
// A caller that finds every token taken (a sweep started while helpers fill
// the budget, or inside a trial) still runs its own trials, on a private
// arena the pool never shelves, and moves to a shelved arena at the first
// trial boundary where a token is free: helpers give theirs up at their
// next boundary when callers overdraw the budget.
type runner struct {
	ts            *TrialScratch
	token, helper bool
}

// newRunnerLocked takes a token and a shelved arena if a token is free,
// else a private arena. trialPool.mu must be held.
func newRunnerLocked() runner {
	if takeToken() {
		return runner{ts: takeArenaLocked(), token: true}
	}
	return runner{ts: new(TrialScratch)}
}

// upgrade swaps a tokenless runner's private arena for a shelved one once
// a token is free.
func (r *runner) upgrade() {
	if takeToken() {
		trialPool.mu.Lock()
		r.ts, r.token = takeArenaLocked(), true
		trialPool.mu.Unlock()
		r.ts.Stamp("", "", 0)
	}
}

// releaseLocked gives back the runner's token, and shelves its arena when
// clean is true. An arena whose runner saw a trial fail is never shelved: a
// panicked trial may leave a cached runner mid-build, and a timed-out
// trial's goroutine still owns its arena. trialPool.mu must be held.
func (r *runner) releaseLocked(clean bool) {
	if r.token {
		if clean {
			trialPool.idle = append(trialPool.idle, r.ts)
		}
		trialPool.held.Add(-1)
	}
	r.ts, r.token = nil, false
}

// sweep is the shared state of one runTrials call.
type sweep struct {
	done    <-chan struct{}
	n       int
	width   int // most runners the sweep takes, its caller included
	fn      func(trial int, ts *TrialScratch)
	timeout time.Duration

	next, completed atomic.Int64
	stop            atomic.Bool
	helpers         sync.WaitGroup

	// active counts the runners working on the sweep, its caller included;
	// guarded by trialPool.mu.
	active int

	errMu    sync.Mutex
	firstErr error
}

// wantsHelper reports whether another runner could still claim a trial of s.
func (s *sweep) wantsHelper() bool {
	return s.active < s.width && !s.stop.Load() && s.next.Load() < int64(s.n)
}

// work runs trials of s on r until none is left unclaimed, the sweep
// stops, or (for a helper) callers overdraw the budget. It reports false
// after a failed trial, whose arena must not be recycled.
func (s *sweep) work(r *runner) bool {
	// The arena may come from another sweep: a trial that never stamps
	// must not report that sweep's experiment as its own.
	r.ts.Stamp("", "", 0)
	for !s.stop.Load() {
		if r.helper && trialPool.running.Load() > trialPool.limit.Load() {
			return true
		}
		if !r.token {
			r.upgrade()
		}
		if s.done != nil {
			select {
			case <-s.done:
				// Stop claiming trials; peers notice via stop without each
				// paying a context poll.
				s.stop.Store(true)
				return true
			default:
			}
		}
		i := int(s.next.Add(1)) - 1
		if i >= s.n {
			return true
		}
		if err := runTrial(s.fn, i, r.ts, s.timeout); err != nil {
			// Abort the sweep: runners stop claiming trials, so the failure
			// surfaces without first burning through the rest of the grid.
			s.stop.Store(true)
			s.errMu.Lock()
			if s.firstErr == nil {
				s.firstErr = err
			}
			s.errMu.Unlock()
			return false
		}
		s.completed.Add(1)
	}
	return true
}

// dispatchLocked starts helpers while fewer than limit runners are busy and
// an open sweep wants one. trialPool.mu must be held.
func dispatchLocked() {
	for trialPool.running.Load() < trialPool.limit.Load() {
		s := oldestOpenLocked()
		if s == nil {
			return
		}
		trialPool.running.Add(1)
		s.joinLocked()
		go helper(s)
	}
}

// oldestOpenLocked returns the oldest open sweep that wants a helper, or
// nil. trialPool.mu must be held.
func oldestOpenLocked() *sweep {
	for _, s := range trialPool.open {
		if s.wantsHelper() {
			return s
		}
	}
	return nil
}

// joinLocked counts a helper in on s. trialPool.mu must be held, and s
// must be open, so the caller's helpers.Wait cannot have begun.
func (s *sweep) joinLocked() {
	s.helpers.Add(1)
	s.active++
}

// helper is a runner goroutine started by dispatchLocked. It takes its
// token only once it runs, so a caller that registers in between (the next
// pccserve unit, right after the last one finished) takes the token
// instead, and the helper, finding none, leaves. Otherwise it works on s,
// then moves on to the oldest open sweep that wants a helper while the
// budget allows, and exits, giving its token and arena back, when none does.
func helper(s *sweep) {
	r := runner{token: takeToken(), helper: true}
	if r.token {
		trialPool.mu.Lock()
		r.ts = takeArenaLocked()
		trialPool.mu.Unlock()
	}
	for {
		clean := r.token && s.work(&r)
		trialPool.mu.Lock()
		s.active--
		var next *sweep
		if clean && trialPool.running.Load() <= trialPool.limit.Load() {
			next = oldestOpenLocked()
		}
		if next == nil {
			r.releaseLocked(clean)
			leaveLocked()
			trialPool.mu.Unlock()
			s.helpers.Done()
			return
		}
		next.joinLocked()
		trialPool.mu.Unlock()
		s.helpers.Done()
		s = next
	}
}

// runTrials is the engine beneath every sweep: it runs fn(trial, ts) for
// every trial in [0, n) on at most width runners (1 = sequential, in trial
// order, on the calling goroutine, with a single scratch serving every
// trial). The calling goroutine always runs trials itself, so a sweep
// started inside a trial never waits for the budget; helpers join only
// while fewer than Workers() runners are busy across all sweeps. fn must be
// self-contained: it builds its own Runner (and therefore its own engine,
// RNGs and packet pool) from a seed derived from the trial index, and
// writes any result into a slot owned by that index. Calls may execute on
// different goroutines in any order. Each runner holds one TrialScratch at
// a time, so consecutive trials on a runner reuse fully built simulation
// state (see arena.go); the scratch reaches only one trial at a time, and
// results remain byte-identical at any width because arena reuse is
// placement-policy only.
//
// The context is consulted only at trial boundaries — a trial that
// has started always runs to completion (or to its watchdog deadline) — so
// cancellation can never tear a simulation down mid-event. It returns nil
// when all n trials completed, a *SweepCancelledError when ctx stopped the
// sweep first, or the typed *TrialPanicError/*TrialTimeoutError of the
// first failing trial (which also aborts the sweep). No helper is working
// on the sweep once it returns.
func runTrials(ctx context.Context, width, n int, fn func(trial int, ts *TrialScratch)) error {
	if n <= 0 {
		return nil
	}
	cancelled := func(completed int) error {
		err := context.Cause(ctx)
		if err == nil {
			err = ctx.Err()
		}
		return &SweepCancelledError{Completed: completed, Total: n, Err: err}
	}
	done := ctx.Done()
	if done != nil && ctx.Err() != nil {
		return cancelled(0)
	}
	enterGCRelax()
	defer exitGCRelax()
	s := &sweep{done: done, n: n, width: max(1, min(width, n)), fn: fn, timeout: configOf(ctx).TrialTimeout, active: 1}

	trialPool.mu.Lock()
	trialPool.limit.Store(int64(Workers()))
	r := newRunnerLocked()
	trialPool.running.Add(1)
	if s.width > 1 {
		trialPool.open = append(trialPool.open, s)
		dispatchLocked()
	}
	trialPool.mu.Unlock()

	clean := s.work(&r)

	trialPool.mu.Lock()
	r.releaseLocked(clean)
	leaveLocked()
	if s.width > 1 {
		trialPool.open = slices.DeleteFunc(trialPool.open, func(o *sweep) bool { return o == s })
	}
	dispatchLocked() // the token this caller frees may serve another sweep
	trialPool.mu.Unlock()
	s.helpers.Wait()

	if s.firstErr != nil {
		return s.firstErr
	}
	if c := int(s.completed.Load()); c < n {
		return cancelled(c)
	}
	return nil
}

// RunTrialsScratchCtx runs fn over [0, n) on the default number of workers
// (see runTrials). The sweep stops scheduling at the next trial boundary
// once ctx is cancelled (in-flight trials finish) and returns a
// *SweepCancelledError recording how many trials completed; trial panics and
// watchdog timeouts are returned as typed errors.
func RunTrialsScratchCtx(ctx context.Context, n int, fn func(trial int, ts *TrialScratch)) error {
	return runTrials(ctx, Workers(), n, fn)
}

// RunPointsScratchCtx runs fn over [0, n) in parallel and returns the
// results in index order: out[i] == fn(i) no matter which worker computed
// it. This is the workhorse of the drivers: a figure's sweep grid is
// flattened into n points, computed concurrently, and reassembled into rows
// sequentially so row order and floating-point aggregation order never
// change. On a non-nil error the returned slice still holds every completed
// point (the partial results a serving layer can stream); unstarted slots
// are zero values.
func RunPointsScratchCtx[T any](ctx context.Context, n int, fn func(point int, ts *TrialScratch) T) ([]T, error) {
	out := make([]T, n)
	err := RunTrialsScratchCtx(ctx, n, func(i int, ts *TrialScratch) { out[i] = fn(i, ts) })
	return out, err
}

// protoGrid is RunPointsScratchCtx over a driver's axis × protocol sweep: it
// runs fn(ts, a, proto, i) for every axis point a in [0, nAxis) and every
// protocol, where i is the flat trial index a·len(protos) + the protocol's
// position (what per-trial seeds derive from), and returns grid[a][p], the
// result for axis point a and protos[p].
func protoGrid[T any](ctx context.Context, nAxis int, protos []string, fn func(ts *TrialScratch, a int, proto string, i int) T) ([][]T, error) {
	np := len(protos)
	flat, err := RunPointsScratchCtx(ctx, nAxis*np, func(i int, ts *TrialScratch) T {
		return fn(ts, i/np, protos[i%np], i)
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]T, nAxis)
	for a := range grid {
		grid[a] = flat[a*np : (a+1)*np]
	}
	return grid, nil
}

// RunTrialsScratch is RunTrialsScratchCtx without cancellation; a trial
// panic is wrapped in a *TrialPanicError and re-raised on the caller's
// goroutine, matching sequential behaviour, and a watchdog timeout is
// re-raised as a *TrialTimeoutError the same way.
func RunTrialsScratch(n int, fn func(trial int, ts *TrialScratch)) {
	if err := RunTrialsScratchCtx(context.Background(), n, fn); err != nil {
		// Background never cancels, so err is a typed trial failure.
		panic(err)
	}
}

// RunPointsScratch is RunPointsScratchCtx with RunTrialsScratch's panic
// contract.
func RunPointsScratch[T any](n int, fn func(point int, ts *TrialScratch) T) []T {
	out := make([]T, n)
	RunTrialsScratch(n, func(i int, ts *TrialScratch) { out[i] = fn(i, ts) })
	return out
}

// descendingBy returns a permutation of [0, n) that is stable-sorted by
// descending size(i) — the canonical largest-shape-first order. Because
// every trial is self-contained and results are written to slots owned by
// the trial index, execution order is placement policy only — reports stay
// byte-identical under any permutation. Drivers use it to run a sweep's
// largest shapes first, so each worker's arena grows to its high-water mark
// on its first trials and every later, smaller shape rebuilds warm (a
// smallest-first grid instead re-grows windows and flow pools at each step
// up).
func descendingBy(n int, size func(i int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	return order
}

// TrialSeed derives a per-trial root seed from (rootSeed, trial) with a
// SplitMix64 finalizer, so trials are decorrelated even for adjacent
// indices and the mapping is stable across releases. Drivers that predate
// the pool use ad-hoc affine derivations (seed + k*trial); both are fine —
// what matters is that the derivation depends only on (rootSeed, trial).
func TrialSeed(rootSeed int64, trial int) int64 {
	z := uint64(rootSeed) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
