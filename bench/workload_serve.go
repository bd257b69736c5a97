package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"pcc/internal/exp"
	"pcc/internal/serve"
)

// benchCodeVersion pins the cache key's code component, as a stamped build
// would; an unpinned server would key on the checkout's VCS state.
const benchCodeVersion = "bench"

// sweepServer is an in-process pccserve behind httptest with its own cache
// directory.
type sweepServer struct {
	srv  *serve.Server
	http *httptest.Server
	dir  string
}

func startSweepServer(r *run) (*sweepServer, error) {
	dir, err := r.scratchDir("serve-cache")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Workers: 2, CacheDir: dir, CodeVersion: benchCodeVersion})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &sweepServer{srv: srv, http: httptest.NewServer(srv), dir: dir}, nil
}

// stop closes the listener, drains the workers and removes the cache.
func (s *sweepServer) stop() {
	s.http.Close()
	s.srv.Drain()
	os.RemoveAll(s.dir)
}

// sweepReply is one POST /v1/sweep as the client saw it.
type sweepReply struct {
	status      int
	body        []byte
	firstLine   time.Duration // request start to the first NDJSON line
	total       time.Duration
	lines       int
	summaryDone bool
}

// postSweep sends one sweep of exps at scale on seed and reads the stream.
func postSweep(client *http.Client, url string, exps []string, scale float64, seed int64) (sweepReply, error) {
	req, err := json.Marshal(serve.SweepRequest{Experiments: exps, Scales: []float64{scale}, Seeds: []int64{seed}})
	if err != nil {
		return sweepReply{}, err
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/sweep", "application/json", bytes.NewReader(req))
	if err != nil {
		return sweepReply{}, err
	}
	defer resp.Body.Close()
	rep := sweepReply{status: resp.StatusCode}
	br := bufio.NewReader(resp.Body)
	var last []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if rep.lines == 0 {
				rep.firstLine = time.Since(t0)
			}
			rep.lines++
			rep.body = append(rep.body, line...)
			last = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, err
		}
	}
	rep.total = time.Since(t0)
	var sum serve.SummaryLine
	if json.Unmarshal(last, &sum) == nil {
		rep.summaryDone = sum.Done && sum.Failed == 0 && sum.Completed == sum.Units && sum.Units == len(exps)
	}
	return rep, nil
}

// ok reports whether the reply is a complete stream of n units.
func (rep sweepReply) ok(n int) bool {
	return rep.status == http.StatusOK && rep.lines == n+1 && rep.summaryDone
}

// expectedBody computes a sweep's stream directly: every unit's result line
// as the server marshals it, then the summary line.
func expectedBody(exps []string, scale float64, seed int64) ([]byte, error) {
	var body []byte
	for _, id := range exps {
		rep, err := exp.Run(id, scale, seed)
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(serve.ResultLine{Experiment: id, Seed: seed, Scale: scale, Report: rep.String()})
		if err != nil {
			return nil, err
		}
		body = append(append(body, line...), '\n')
	}
	sum, err := json.Marshal(serve.SummaryLine{Done: true, Units: len(exps), Completed: len(exps)})
	if err != nil {
		return nil, err
	}
	return append(append(body, sum...), '\n'), nil
}

// serveSweep is a pccserve sweep, closed loop, against a fresh server and
// cache directory. Cold phase: one client sends sequential sweeps, each a
// never-seen seed over the eight experiments of serveExperiments, so every
// unit is computed by the workers and stored with Cache.Put (fsync). Hit
// phase: the same client replays the same keysets, every unit served by
// Cache.Get. One client, because client and server share the box's two
// cores: with two clients the hit latency moved 12 to 18 % from process to
// process on who was scheduled beside whom, with one it moves 3 %. Reads
// follow writes on one cache, so a gain for one that costs the other shows.
//
// Set-up computes the first sweep's expected stream directly with exp.Run
// and starts the server. A round is both phases. Operations are the units
// streamed in the hit phase; op_ms_mid and op_ms_tail are the typical and
// 99th-percentile latency of a cached request.
func serveSweep(r *run) {
	sz := r.sz
	rng := rand.New(rand.NewSource(r.o.seed))
	seeds := make([]int64, 0, sz.ServeCold)
	seen := make(map[int64]bool)
	for len(seeds) < sz.ServeCold {
		if s := 1 + rng.Int63n(1<<40); !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	units := len(sz.ServeExps)

	var srv *sweepServer
	var want0 []byte
	for i := 0; i < sz.SetupReps; i++ {
		r.setup(func() {
			if srv != nil {
				srv.stop()
			}
			var err error
			if want0, err = expectedBody(sz.ServeExps, sz.ServeScale, seeds[0]); err != nil {
				r.fail("reference sweep: %v", err)
			}
			if srv, err = startSweepServer(r); err != nil {
				r.fail("start server: %v", err)
			}
		})
	}
	if srv == nil {
		r.attempt(1, 1, "server starts")
		r.round(func() {})
		return
	}
	defer srv.stop()
	client, url := srv.http.Client(), srv.http.URL

	cold := make([][]byte, len(seeds))
	var ttflMS, ttflFrac []float64
	hitMS := make([]float64, 0, sz.ServeHits)
	var coldWall, hitWall time.Duration
	failedCold, failedHit, shed := 0, 0, 0
	r.round(func() {
		root := r.tr.begin("serve_sweep", "bench", -1, 0)
		phase := r.tr.begin("cold phase", "bench", root, 0)
		t0 := time.Now()
		for k, seed := range seeds {
			sp := r.tr.begin("POST /v1/sweep (cold)", "serve", phase, 0)
			rep, err := postSweep(client, url, sz.ServeExps, sz.ServeScale, seed)
			r.tr.end(sp)
			if err != nil || !rep.ok(units) {
				failedCold++
				r.fail("cold request %d: status %d, %d lines, err %v", k, rep.status, rep.lines, err)
				continue
			}
			cold[k] = rep.body
			ttflMS = append(ttflMS, rep.firstLine.Seconds()*1000)
			ttflFrac = append(ttflFrac, rep.firstLine.Seconds()/rep.total.Seconds())
		}
		coldWall = time.Since(t0)
		r.tr.end(phase)

		// The cold phase leaves a heap target of 300 to 490 MB that the hit
		// phase's garbage would fill before the next collection.
		settle()

		phase = r.tr.begin("hit phase", "bench", root, 0)
		t0 = time.Now()
		for j := 0; j < sz.ServeHits; j++ {
			k := j % len(seeds)
			sp := r.tr.begin("POST /v1/sweep (hit)", "serve", phase, 0)
			rep, err := postSweep(client, url, sz.ServeExps, sz.ServeScale, seeds[k])
			r.tr.end(sp)
			if rep.status == http.StatusTooManyRequests {
				shed++
			}
			// A hit must be the cold response, byte for byte.
			if err != nil || !rep.ok(units) || !bytes.Equal(rep.body, cold[k]) {
				failedHit++
				continue
			}
			hitMS = append(hitMS, rep.total.Seconds()*1000)
		}
		hitWall = time.Since(t0)
		r.tr.end(phase)
		r.tr.end(root)
	})
	r.attempt(len(seeds), failedCold, "cold requests")
	r.attempt(sz.ServeHits, failedHit, "cached requests")
	r.check(bytes.Equal(cold[0], want0), "served stream differs from marshal(exp.Run(...).String()) computed directly")
	r.digest("cold_streams", bytes.Join(cold, nil))

	// The server's own counters must account for every unit.
	var stats serve.StatsReply
	if resp, err := client.Get(url + "/v1/stats"); err != nil {
		r.check(false, "GET /v1/stats: %v", err)
	} else {
		err := json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		r.check(err == nil, "decode /v1/stats: %v", err)
	}
	wantHits, wantMisses := int64(sz.ServeHits*units), int64(len(seeds)*units)
	r.check(stats.Cache.Hits == wantHits && stats.Cache.Misses == wantMisses && stats.Cache.Corrupt == 0 && shed == 0,
		"/v1/stats: hits %d (want %d), misses %d (want %d), corrupt %d, shed %d",
		stats.Cache.Hits, wantHits, stats.Cache.Misses, wantMisses, stats.Cache.Corrupt, shed)
	r.count("serve.cache_hits", stats.Cache.Hits)
	r.count("serve.cache_misses", stats.Cache.Misses)
	r.count("serve.cache_corrupt", stats.Cache.Corrupt)
	r.count("serve.shed_429", int64(shed))

	if len(hitMS) == 0 || len(ttflMS) == 0 {
		hitMS, ttflMS, ttflFrac = []float64{0}, []float64{0}, []float64{0}
	}
	sorted := sortedCopy(hitMS)
	r.set("ops_per_s", float64(len(hitMS)*units)/hitWall.Seconds())
	r.set("op_ms_mid", midMean(sorted), hitMS...)
	r.set("op_ms_tail", percentileSorted(sorted, 99))
	r.res.Timings["ttfl_ms"] = summarize(ttflMS)
	r.res.Timings["cold_phase_s"] = summarize([]float64{coldWall.Seconds()})
	r.res.Timings["hit_phase_s"] = summarize([]float64{hitWall.Seconds()})
	if r.o.trace {
		r.set("serve.ttfl_frac", median(ttflFrac))
		r.set("serve.cold_units_per_s", float64((len(seeds)-failedCold)*units)/coldWall.Seconds())
		r.set("serve.cache_hits", float64(stats.Cache.Hits))
		r.set("serve.cache_misses", float64(stats.Cache.Misses))
		r.set("serve.cache_corrupt", float64(stats.Cache.Corrupt))
		r.set("serve.shed_429", float64(shed))
	}
}
