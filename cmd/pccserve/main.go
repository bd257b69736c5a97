// Command pccserve is the sweep-serving daemon: it accepts experiment
// sweep requests over HTTP, schedules units onto the same trial pool
// pccbench uses, streams per-unit reports as NDJSON (it flushes whenever
// the stream would otherwise wait: before blocking on a unit still being
// computed, and after the summary line), and memoizes results in a
// crash-safe content-addressed cache with a verified in-memory tier in
// front of the disk store.
//
// Usage:
//
//	pccserve -addr :8080 -cachedir /var/cache/pcc
//	curl -sN localhost:8080/v1/sweep -d '{"experiments":["theory"],"scales":[0.2],"seeds":[42]}'
//
// Endpoints:
//
//	POST /v1/sweep       run a sweep, stream NDJSON result lines in unit order
//	GET  /v1/experiments list experiment ids
//	GET  /v1/errors      recent quarantined trial panics/timeouts (with stacks)
//	GET  /v1/stats       cache (both tiers) + scheduler counters
//	GET  /healthz        liveness (200 even while draining)
//	GET  /readyz         readiness (503 once draining)
//
// -par is the trial budget every unit shares; -trialtimeout arms a
// watchdog on each request's context: a trial whose simulation runs past
// the deadline is stopped and fails its unit. A client disconnect or a
// sweep deadline stops the request's running trials the same way.
//
// SIGTERM/SIGINT drain: in-flight sweeps finish and flush, new work gets
// 503, then the process exits 0. Bodies are byte-identical run over run —
// the second identical sweep is served from the cache (see /v1/stats).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pcc/internal/exp"
	"pcc/internal/serve"
)

var (
	addr         = flag.String("addr", ":8080", "listen address")
	cachedir     = flag.String("cachedir", "pccserve-cache", "result cache directory ('' disables caching)")
	workers      = flag.Int("workers", 2, "concurrent sweep units (all units share one pool of -par trial workers)")
	queue        = flag.Int("queue", 64, "admitted units across all requests before 429")
	maxunits     = flag.Int("maxunits", 256, "per-request unit budget")
	sweeptimeout = flag.Duration("sweeptimeout", 0, "server-side deadline per sweep (0 = none)")
	trialtimeout = flag.Duration("trialtimeout", 0, "per-trial watchdog on every request's sweeps: a trial whose simulation runs past it is stopped and fails its unit typed (0 = disabled)")
	par          = flag.Int("par", 0, "trials run at once across all units: the process-wide trial pool (0 = GOMAXPROCS)")
	draingrace   = flag.Duration("draingrace", 30*time.Second, "max time to wait for in-flight sweeps on shutdown")
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()
	exp.SetWorkers(*par)

	srv, err := serve.NewServer(serve.Config{
		CacheDir:     *cachedir,
		Workers:      *workers,
		Queue:        *queue,
		MaxUnits:     *maxunits,
		SweepTimeout: *sweeptimeout,
		TrialTimeout: *trialtimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccserve:", err)
		return 1
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("pccserve: listening on %s (cache %q)", *addr, *cachedir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		log.Printf("pccserve: %v: draining", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "pccserve:", err)
		return 1
	}

	// Drain: reject new sweeps, let in-flight ones finish and flush, then
	// close the listener. Streams still writing keep their connections via
	// Shutdown's graceful close; draingrace bounds a wedged sweep.
	done := make(chan struct{})
	go func() { srv.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(*draingrace):
		log.Printf("pccserve: drain grace %v elapsed, forcing shutdown", *draingrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "pccserve: shutdown:", err)
		return 1
	}
	log.Printf("pccserve: drained, exiting")
	return 0
}
