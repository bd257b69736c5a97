package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcc/internal/exp"
)

// Config tunes a Server. Zero values get sane defaults from NewServer.
type Config struct {
	// CacheDir roots the result cache. Empty disables caching.
	CacheDir string
	// Workers is how many sweep units run concurrently. All units share
	// exp's one process-wide pool of exp.Workers() trial runners, so more
	// units overlap more requests without running more trials at once.
	Workers int
	// Queue bounds admitted units (queued + running) across all requests;
	// beyond it new sweeps get 429 + Retry-After.
	Queue int
	// MaxUnits is the per-request unit budget; larger sweeps get 400.
	MaxUnits int
	// SweepTimeout is the server-side deadline per sweep request. Zero
	// means no server-imposed deadline.
	SweepTimeout time.Duration
	// LedgerSize bounds the error ledger ring.
	LedgerSize int
	// CodeVersion overrides the cache key's code-version component
	// (tests pin it; production uses the VCS stamp).
	CodeVersion string
}

// Server wires the cache, scheduler, and ledger behind an http.Handler.
type Server struct {
	cfg      Config
	cache    *Cache // nil when caching is disabled
	sched    *Scheduler
	ledger   *Ledger
	mux      *http.ServeMux
	known    map[string]bool // exp.IDs() at construction; the registry is read-only by then
	draining atomic.Bool
	inflight sync.WaitGroup

	sweeps, sweepsDone, sweepsCancelled, sweepsFailed atomic.Int64
}

// NewServer builds a Server. The error is only from opening the cache dir.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.MaxUnits <= 0 {
		cfg.MaxUnits = 256
	}
	if cfg.LedgerSize <= 0 {
		cfg.LedgerSize = 64
	}
	if cfg.CodeVersion == "" {
		cfg.CodeVersion = BuildVersion()
	}
	s := &Server{
		cfg:    cfg,
		sched:  NewScheduler(cfg.Workers, cfg.Queue),
		ledger: NewLedger(cfg.LedgerSize),
		mux:    http.NewServeMux(),
		known:  make(map[string]bool),
	}
	for _, id := range exp.IDs() {
		s.known[id] = true
	}
	if cfg.CacheDir != "" {
		c, err := NewCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("/v1/errors", s.handleErrors)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain implements SIGTERM semantics: stop admitting sweeps (readyz flips to
// 503, new sweeps get 503), let in-flight requests finish and flush their
// streams, then stop the workers. After Drain returns the process can exit 0.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.inflight.Wait()
	s.sched.Close()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// SweepRequest is the POST /v1/sweep body. Units is the cross product of
// Experiments × Scales × Seeds, in that nesting order (seeds innermost), so
// the stream order is fully determined by the request.
type SweepRequest struct {
	Experiments []string  `json:"experiments"`
	Scales      []float64 `json:"scales"`
	Seeds       []int64   `json:"seeds"`
	// Variant is carried into every cache key and result line; empty means
	// "all variants" (drivers sweep their protocol variants internally).
	Variant string `json:"variant"`
	// Timeout optionally tightens the server's per-sweep deadline; it can
	// never loosen it. Go duration syntax.
	Timeout string `json:"timeout"`
}

// maxSweepBody caps a POST /v1/sweep body: far above what MaxUnits' worth of
// ids, scales and seeds needs.
const maxSweepBody = 1 << 20

// units expands the request into an ordered unit list, refusing a sweep over
// the per-request budget before expanding it.
func (s *Server) units(req *SweepRequest) ([]Key, error) {
	if len(req.Experiments) == 0 {
		return nil, errors.New("no experiments given")
	}
	if len(req.Scales) == 0 {
		req.Scales = []float64{1}
	}
	if len(req.Seeds) == 0 {
		req.Seeds = []int64{1}
	}
	n := len(req.Experiments) * len(req.Scales) * len(req.Seeds)
	if n > s.cfg.MaxUnits {
		return nil, fmt.Errorf("sweep of %d units exceeds per-request budget of %d", n, s.cfg.MaxUnits)
	}
	keys := make([]Key, 0, n)
	for _, e := range req.Experiments {
		if !s.known[e] {
			return nil, fmt.Errorf("unknown experiment %q", e)
		}
		for _, sc := range req.Scales {
			for _, sd := range req.Seeds {
				keys = append(keys, Key{
					Experiment: e, Variant: req.Variant,
					Seed: sd, Scale: sc, Code: s.cfg.CodeVersion,
				})
			}
		}
	}
	return keys, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	// Re-check under the in-flight count: Drain sets the flag then waits on
	// the group, so a request that got past this point is always waited for.
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}

	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), status)
		return
	}
	keys, err := s.units(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Deadline: server cap, tightened (never loosened) by the request. A
	// timeout that does not parse to a positive duration is a 400, not "no
	// deadline".
	timeout := s.cfg.SweepTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err == nil && d <= 0 {
			err = fmt.Errorf("duration %s is not positive", req.Timeout)
		}
		if err != nil {
			http.Error(w, "bad timeout: "+err.Error(), http.StatusBadRequest)
			return
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}

	// Admission: all units reserved atomically, or a clean 429 with a
	// retry hint scaled to the backlog.
	if !s.sched.Reserve(len(keys)) {
		st := s.sched.Stats()
		retry := 1 + int(st.Reserved)/s.cfg.Workers
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "sweep queue full", http.StatusTooManyRequests)
		return
	}
	s.sweeps.Add(1)

	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.streamSweep(ctx, newLineWriter(w), keys)
}

// streamSweep resolves every unit — cache hit, or scheduled compute — and
// writes result lines strictly in unit order. All misses are submitted up
// front so the workers overlap them; the in-order await is the ordered
// emitter that keeps bodies byte-identical run over run. The stream is
// flushed before every wait on a pending unit and after the summary, so a
// computed line reaches the client as soon as it exists and a run of cached
// lines goes out together.
func (s *Server) streamSweep(ctx context.Context, lw *lineWriter, keys []Key) {
	type slot struct {
		cached []byte
		res    <-chan unitResult
	}
	slots := make([]slot, len(keys))
	for i, k := range keys {
		if s.cache != nil {
			if b, ok := s.cache.Get(k); ok {
				slots[i].cached = b
				s.sched.Release(1) // reserved but never submitted
				continue
			}
		}
		slots[i].res = s.sched.Submit(ctx, k)
	}

	completed, failed := 0, 0
	finish := func(cancelled bool) {
		if cancelled {
			s.sweepsCancelled.Add(1)
		} else if failed > 0 {
			s.sweepsFailed.Add(1)
		} else {
			s.sweepsDone.Add(1)
		}
		lw.writeJSON(SummaryLine{
			Done: !cancelled, Cancelled: cancelled,
			Units: len(keys), Completed: completed, Failed: failed,
		})
		lw.flush()
	}

	for i, sl := range slots {
		if sl.cached != nil {
			if err := lw.writeRaw(sl.cached); err != nil {
				finish(true)
				return
			}
			completed++
			continue
		}
		var ur unitResult
		lw.flush() // about to wait: deliver the lines already written
		select {
		case ur = <-sl.res:
		case <-ctx.Done():
			// The remaining submitted jobs see the same dead ctx and are
			// skipped by the workers; their buffered result channels let the
			// workers move on without us.
			finish(true)
			return
		}
		switch {
		case ur.err == nil:
			line := marshalResult(keys[i], ur.rep.String())
			if s.cache != nil {
				s.cache.Put(keys[i], line)
			}
			if err := lw.writeRaw(line); err != nil {
				finish(true)
				return
			}
			completed++
		case isCancellation(ur.err):
			finish(true)
			return
		default:
			// Quarantined failure: only this request is affected. Ledger
			// keeps the stack, the cache entry is poisoned, the stream
			// carries an in-band error line, and the sweep continues.
			s.ledger.Record(keys[i], ur.err)
			if s.cache != nil {
				s.cache.Poison(keys[i])
			}
			failed++
			errLine := ResultLine{
				Experiment: keys[i].Experiment, Variant: keys[i].Variant,
				Seed: keys[i].Seed, Scale: keys[i].Scale,
				Error: &LineError{Kind: errKind(ur.err), Message: ur.err.Error()},
			}
			if err := lw.writeJSON(errLine); err != nil {
				finish(true)
				return
			}
		}
	}
	finish(false)
}

// isCancellation reports whether err means "the sweep's context died" rather
// than "this unit failed".
func isCancellation(err error) bool {
	var sc *exp.SweepCancelledError
	return errors.As(err, &sc) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errKind names a quarantined failure for the in-band error line.
func errKind(err error) string {
	var tpe *exp.TrialPanicError
	var tte *exp.TrialTimeoutError
	switch {
	case errors.As(err, &tpe):
		return "panic"
	case errors.As(err, &tte):
		return "timeout"
	default:
		return "error"
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up, even while draining.
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"experiments": exp.IDs()})
}

func (s *Server) handleErrors(w http.ResponseWriter, r *http.Request) {
	recs, total := s.ledger.Snapshot()
	writeJSON(w, map[string]any{"errors": recs, "total": total})
}

// StatsReply is the /v1/stats body.
type StatsReply struct {
	Cache    CacheStats `json:"cache"`
	Sched    SchedStats `json:"sched"`
	Sweeps   int64      `json:"sweeps"`
	Done     int64      `json:"done"`
	Cancel   int64      `json:"cancelled"`
	Failed   int64      `json:"failed"`
	Draining bool       `json:"draining"`
	Code     string     `json:"code_version"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reply := StatsReply{
		Sched:    s.sched.Stats(),
		Sweeps:   s.sweeps.Load(),
		Done:     s.sweepsDone.Load(),
		Cancel:   s.sweepsCancelled.Load(),
		Failed:   s.sweepsFailed.Load(),
		Draining: s.draining.Load(),
		Code:     s.cfg.CodeVersion,
	}
	if s.cache != nil {
		reply.Cache = s.cache.Stats()
	}
	writeJSON(w, reply)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
