package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pcc/internal/exp"
)

// Test drivers: cheap, deterministic experiments registered once for this
// test binary. They live beside the real drivers in exp's registry, which is
// exactly how an extension would add experiments to a running daemon.
func init() {
	exp.RegisterCtx("srvtest", func(ctx context.Context, scale float64, seed int64) (*exp.Report, error) {
		return &exp.Report{
			ID: "srvtest", Title: "serve test driver",
			Header: []string{"scale", "seed"},
			Rows:   [][]string{{fmt.Sprintf("%.3f", scale), fmt.Sprintf("%d", seed)}},
		}, nil
	})
	exp.RegisterCtx("srvpanic", func(ctx context.Context, scale float64, seed int64) (*exp.Report, error) {
		return nil, exp.RunTrialsScratchCtx(ctx, 1, func(i int, ts *exp.TrialScratch) {
			ts.Stamp("srvpanic", "inj", seed)
			srvPanicTrial()
		})
	})
	exp.RegisterCtx("srvhang", func(ctx context.Context, scale float64, seed int64) (*exp.Report, error) {
		err := exp.RunTrialsScratchCtx(ctx, 1, func(i int, ts *exp.TrialScratch) {
			ts.Stamp("srvhang", "wedge", seed)
			<-srvHangRelease
		})
		if err != nil {
			return nil, err
		}
		return &exp.Report{ID: "srvhang", Header: []string{"ok"}, Rows: [][]string{{"ok"}}}, nil
	})
	exp.RegisterCtx("srvgate", func(ctx context.Context, scale float64, seed int64) (*exp.Report, error) {
		select {
		case <-currentGate():
		case <-ctx.Done():
			return nil, &exp.SweepCancelledError{Completed: 0, Total: 1, Err: context.Cause(ctx)}
		}
		return &exp.Report{ID: "srvgate", Header: []string{"seed"},
			Rows: [][]string{{fmt.Sprintf("%d", seed)}}}, nil
	})
	// srvgateeven gates only even seeds, so one sweep can hold a finished
	// unit followed by a blocked one.
	exp.RegisterCtx("srvgateeven", func(ctx context.Context, scale float64, seed int64) (*exp.Report, error) {
		if seed%2 == 0 {
			select {
			case <-currentGate():
			case <-ctx.Done():
				return nil, &exp.SweepCancelledError{Completed: 0, Total: 1, Err: context.Cause(ctx)}
			}
		}
		return &exp.Report{ID: "srvgateeven", Header: []string{"seed"},
			Rows: [][]string{{fmt.Sprintf("%d", seed)}}}, nil
	})
	exp.RegisterCtx("srvslow", func(ctx context.Context, scale float64, seed int64) (*exp.Report, error) {
		for i := 0; i < 50; i++ {
			select {
			case <-ctx.Done():
				return nil, &exp.SweepCancelledError{Completed: i, Total: 50, Err: context.Cause(ctx)}
			case <-time.After(10 * time.Millisecond):
			}
		}
		return &exp.Report{ID: "srvslow", Header: []string{"seed"},
			Rows: [][]string{{fmt.Sprintf("%d", seed)}}}, nil
	})
}

// srvPanicTrial panics from a named frame so ledger stack assertions have an
// unambiguous symbol to look for.
func srvPanicTrial() { panic("injected serve-test panic") }

var srvHangRelease = make(chan struct{})

var (
	gateMu sync.Mutex
	gate   = make(chan struct{})
)

func currentGate() chan struct{} {
	gateMu.Lock()
	defer gateMu.Unlock()
	return gate
}

// resetGate installs a fresh gate and returns a release function.
func resetGate() func() {
	gateMu.Lock()
	defer gateMu.Unlock()
	gate = make(chan struct{})
	g := gate
	return func() { close(g) }
}

// newTestServer builds a Server with a pinned code version (stable cache
// keys under `go test`, where no VCS stamp exists) plus an httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.CodeVersion = "test-pin"
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSweep(t *testing.T, url string, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ndjsonLines splits a body and checks every line is valid JSON.
func ndjsonLines(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// TestSweepByteIdenticalAndCached is the heart of the serving contract: the
// same sweep served twice returns byte-identical bodies, the second time
// from the cache, and the streamed report matches a direct exp.Run.
func TestSweepByteIdenticalAndCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	req := `{"experiments":["theory"],"scales":[0.2],"seeds":[7]}`

	r1, err := postSweep(t, ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r1.StatusCode)
	}
	if ct := r1.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	body1 := readAll(t, r1)
	if srv.cache.Stats().Hits != 0 {
		t.Fatal("first sweep hit the cache")
	}

	r2, err := postSweep(t, ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, r2)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("bodies differ:\n%s\nvs\n%s", body1, body2)
	}
	if hits := srv.cache.Stats().Hits; hits != 1 {
		t.Errorf("cache hits after second sweep = %d, want 1", hits)
	}

	// The streamed report is exactly what a direct run produces.
	lines := ndjsonLines(t, body1)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want result + summary", len(lines))
	}
	rep, err := exp.Run("theory", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := lines[0]["report"]; got != rep.String() {
		t.Errorf("streamed report differs from direct exp.Run output")
	}
	if lines[1]["done"] != true {
		t.Errorf("summary = %v, want done", lines[1])
	}
}

// TestSweepRecomputesCorruptCache: a truncated or bit-flipped cache entry is
// detected, recomputed, and the re-served body is byte-identical.
func TestSweepRecomputesCorruptCache(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{CacheDir: dir, Workers: 1})
	req := `{"experiments":["srvtest"],"scales":[0.5],"seeds":[3]}`

	r1, err := postSweep(t, ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	body1 := readAll(t, r1)

	corruptEntry(t, dir, func(raw []byte) []byte { return raw[:len(raw)/2] })
	r2, _ := postSweep(t, ts.URL, req)
	body2 := readAll(t, r2)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("recomputed body differs from original:\n%s\nvs\n%s", body1, body2)
	}
	st := srv.cache.Stats()
	if st.Corrupt != 1 || st.Hits != 0 || st.Writes != 2 {
		t.Errorf("stats = %+v, want 1 corrupt, 0 hits, 2 writes", st)
	}

	corruptEntry(t, dir, func(raw []byte) []byte {
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)-2] ^= 1
		return flipped
	})
	r3, _ := postSweep(t, ts.URL, req)
	if body3 := readAll(t, r3); !bytes.Equal(body1, body3) {
		t.Fatal("bit-flip recompute not byte-identical")
	}
	if st := srv.cache.Stats(); st.Corrupt != 2 {
		t.Errorf("Corrupt = %d, want 2", st.Corrupt)
	}

	// And after recompute, the next serve is a clean hit.
	r4, _ := postSweep(t, ts.URL, req)
	if body4 := readAll(t, r4); !bytes.Equal(body1, body4) {
		t.Fatal("cache-hit body not byte-identical")
	}
	if st := srv.cache.Stats(); st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
}

// TestClientDisconnectCancelsSweep is the chaos test: a client that walks
// away mid-stream cancels the sweep at the next unit boundary, every line it
// did receive is valid NDJSON, and no goroutines leak.
func TestClientDisconnectCancelsSweep(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: 16})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"experiments":["srvslow"],"scales":[1],"seeds":[1,2,3,4,5,6]}`
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/sweep", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}

	// Read one complete result line, then vanish.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]any
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("partial stream line is not valid JSON: %q", line)
	}
	if first["experiment"] != "srvslow" {
		t.Fatalf("first line = %v", first)
	}
	cancel()
	resp.Body.Close()

	// The scheduler must observe the cancellation: all reserved slots come
	// back and no unit keeps running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.sched.Stats()
		if st.Reserved == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservations never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.sweepsCancelled.Load(); n != 1 {
		t.Errorf("sweepsCancelled = %d, want 1", n)
	}

	// Counted goroutine check: once the server's conn handler and workers go
	// idle we must be back at the pre-request count.
	http.DefaultClient.CloseIdleConnections()
	ts.CloseClientConnections()
	waitServeGoroutinesSettle(t, base)
}

func waitServeGoroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerDeadlineCancels: the server-side sweep deadline cuts a sweep off
// with a valid cancelled summary line.
func TestServerDeadlineCancels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SweepTimeout: 80 * time.Millisecond})
	resp, err := postSweep(t, ts.URL, `{"experiments":["srvslow"],"scales":[1],"seeds":[1,2,3]}`)
	if err != nil {
		t.Fatal(err)
	}
	lines := ndjsonLines(t, readAll(t, resp))
	if len(lines) == 0 {
		t.Fatal("no lines at all")
	}
	last := lines[len(lines)-1]
	if last["cancelled"] != true || last["done"] != false {
		t.Fatalf("summary = %v, want cancelled", last)
	}
}

// TestAdmissionControl429: once the queue is full of gated units, the next
// sweep is shed with 429 + Retry-After rather than queued or hung.
func TestAdmissionControl429(t *testing.T) {
	release := resetGate()
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 2})

	done := make(chan []byte, 1)
	go func() {
		resp, err := postSweep(t, ts.URL, `{"experiments":["srvgate"],"scales":[1],"seeds":[1,2]}`)
		if err != nil {
			done <- nil
			return
		}
		done <- readAll(t, resp)
	}()

	// Wait for both units to hold the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st StatsReply
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.Sched.Reserved == 2 {
			break
		}
		if time.Now().After(deadline) {
			release()
			t.Fatalf("queue never filled: %+v", st.Sched)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := postSweep(t, ts.URL, `{"experiments":["srvtest"],"scales":[1],"seeds":[9]}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	release()
	body := <-done
	if body == nil {
		t.Fatal("gated sweep failed")
	}
	lines := ndjsonLines(t, body)
	if len(lines) != 3 || lines[2]["done"] != true {
		t.Fatalf("gated sweep stream = %v", lines)
	}

	// With capacity back, the same shed request now succeeds.
	resp, err = postSweep(t, ts.URL, `{"experiments":["srvtest"],"scales":[1],"seeds":[9]}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestUnitBudget400: sweeps over the per-request budget are rejected before
// any work is admitted.
func TestUnitBudget400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxUnits: 2})
	resp, err := postSweep(t, ts.URL, `{"experiments":["srvtest"],"scales":[1],"seeds":[1,2,3]}`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestPanicQuarantine: a panicking experiment fails only its own unit — the
// stream carries an in-band error line plus the other unit's result, the
// ledger records the panic with its stack, and nothing poisons the daemon.
func TestPanicQuarantine(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 1})
	resp, err := postSweep(t, ts.URL,
		`{"experiments":["srvpanic","srvtest"],"scales":[1],"seeds":[5]}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := ndjsonLines(t, readAll(t, resp))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want error + result + summary:\n%v", len(lines), lines)
	}
	errLine := lines[0]["error"].(map[string]any)
	if errLine["kind"] != "panic" {
		t.Errorf("error kind = %v, want panic", errLine["kind"])
	}
	if lines[1]["experiment"] != "srvtest" || lines[1]["report"] == nil {
		t.Errorf("healthy unit did not complete: %v", lines[1])
	}
	if lines[2]["done"] != true || lines[2]["failed"] != float64(1) {
		t.Errorf("summary = %v, want done with 1 failed", lines[2])
	}

	recs, total := srv.ledger.Snapshot()
	if total != 1 || len(recs) != 1 {
		t.Fatalf("ledger has %d records / %d total, want 1", len(recs), total)
	}
	if recs[0].Kind != "panic" || recs[0].Experiment != "srvpanic" {
		t.Errorf("ledger record = %+v", recs[0])
	}
	if !strings.Contains(recs[0].Stack, "srvPanicTrial") {
		t.Errorf("ledger stack does not name the panicking frame:\n%s", recs[0].Stack)
	}

	// The ledger endpoint serves the same record.
	lr, err := http.Get(ts.URL + "/v1/errors")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Errors []ErrorRecord `json:"errors"`
		Total  int64         `json:"total"`
	}
	json.NewDecoder(lr.Body).Decode(&dump)
	lr.Body.Close()
	if dump.Total != 1 || len(dump.Errors) != 1 || dump.Errors[0].Kind != "panic" {
		t.Errorf("/v1/errors = %+v", dump)
	}

	// The daemon survives: the same server immediately serves a clean sweep.
	resp, err = postSweep(t, ts.URL, `{"experiments":["srvtest"],"scales":[1],"seeds":[6]}`)
	if err != nil {
		t.Fatal(err)
	}
	if lines := ndjsonLines(t, readAll(t, resp)); lines[len(lines)-1]["done"] != true {
		t.Error("daemon unhealthy after quarantined panic")
	}
}

// TestWatchdogTimeoutQuarantine: a wedged trial is converted by the watchdog
// that Config.TrialTimeout arms on each request's context into an in-band
// timeout error; the daemon and its worker pool survive.
func TestWatchdogTimeoutQuarantine(t *testing.T) {
	t.Cleanup(func() { close(srvHangRelease) }) // unwedge the abandoned trial goroutine

	srv, ts := newTestServer(t, Config{Workers: 1, TrialTimeout: 100 * time.Millisecond})
	resp, err := postSweep(t, ts.URL, `{"experiments":["srvhang","srvtest"],"scales":[1],"seeds":[8]}`)
	if err != nil {
		t.Fatal(err)
	}
	lines := ndjsonLines(t, readAll(t, resp))
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	errLine, _ := lines[0]["error"].(map[string]any)
	if errLine == nil || errLine["kind"] != "timeout" {
		t.Fatalf("first line = %v, want in-band timeout error", lines[0])
	}
	if lines[1]["experiment"] != "srvtest" {
		t.Errorf("healthy unit missing: %v", lines[1])
	}
	recs, _ := srv.ledger.Snapshot()
	if len(recs) != 1 || recs[0].Kind != "timeout" || recs[0].Variant != "wedge" {
		t.Errorf("ledger = %+v, want one timeout for variant wedge", recs)
	}
}

// TestDrainSemantics: Drain lets the in-flight sweep finish and flush, flips
// readyz to 503 while healthz stays 200, and rejects new sweeps with 503.
func TestDrainSemantics(t *testing.T) {
	release := resetGate()
	srv, ts := newTestServer(t, Config{Workers: 1})

	done := make(chan []byte, 1)
	go func() {
		resp, err := postSweep(t, ts.URL, `{"experiments":["srvgate"],"scales":[1],"seeds":[1]}`)
		if err != nil {
			done <- nil
			return
		}
		done <- readAll(t, resp)
	}()

	// Wait until the unit is actually running.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sched.Stats().Started == 0 {
		if time.Now().After(deadline) {
			release()
			t.Fatal("gated unit never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %v", resp.Status)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %v", resp.Status)
	} else {
		resp.Body.Close()
	}
	if resp, err := postSweep(t, ts.URL, `{"experiments":["srvtest"],"scales":[1],"seeds":[1]}`); err != nil ||
		resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new sweep while draining: %v", resp.Status)
	} else {
		resp.Body.Close()
	}

	// The in-flight sweep must still complete and flush.
	release()
	body := <-done
	if body == nil {
		t.Fatal("in-flight sweep died during drain")
	}
	lines := ndjsonLines(t, body)
	if lines[len(lines)-1]["done"] != true {
		t.Fatalf("in-flight sweep did not finish cleanly: %v", lines)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
}

// TestIntrospectionEndpoints covers the read-only endpoints' shapes.
func TestIntrospectionEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps struct {
		Experiments []string `json:"experiments"`
	}
	json.NewDecoder(resp.Body).Decode(&exps)
	resp.Body.Close()
	found := false
	for _, id := range exps.Experiments {
		if id == "parklot" {
			found = true
		}
	}
	if !found {
		t.Errorf("/v1/experiments missing parklot: %v", exps.Experiments)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Code != "test-pin" || st.Sched.Capacity == 0 {
		t.Errorf("stats = %+v", st)
	}

	// Unknown experiment → 400, not a panic or a hang.
	resp, err = postSweep(t, ts.URL, `{"experiments":["nope"]}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment status = %d, want 400", resp.StatusCode)
	}
}

// TestSweepRequestValidation: a timeout that is not a positive Go duration
// is a 400 (it used to mean "no deadline"), an oversized body is refused,
// and a refused request holds no admission slots.
func TestSweepRequestValidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	sweep := func(timeout string) string {
		return `{"experiments":["srvtest"],"seeds":[1],"timeout":"` + timeout + `"}`
	}
	for _, tc := range []struct {
		name, body string
		status     int
		message    string
	}{
		{"bare number", sweep("30"), http.StatusBadRequest, "missing unit"},
		{"negative", sweep("-5s"), http.StatusBadRequest, "not positive"},
		{"zero", sweep("0s"), http.StatusBadRequest, "not positive"},
		{"words", sweep("soon"), http.StatusBadRequest, "invalid duration"},
		{"valid", sweep("30s"), http.StatusOK, `"done":true`},
		{"absent", `{"experiments":["srvtest"],"seeds":[1]}`, http.StatusOK, `"done":true`},
		{"oversized body", `{"experiments":["srvtest"],"variant":"` + strings.Repeat("v", maxSweepBody) + `"}`,
			http.StatusRequestEntityTooLarge, "too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := postSweep(t, ts.URL, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != tc.status || !bytes.Contains(body, []byte(tc.message)) {
				t.Errorf("status %d, body %q; want %d mentioning %q", resp.StatusCode, body, tc.status, tc.message)
			}
			if st := srv.sched.Stats(); st.Reserved != 0 {
				t.Errorf("%d admission slots held after the response", st.Reserved)
			}
		})
	}
}

// TestStreamFlushesBeforeBlocking: a finished line must reach the client
// while the next unit is still computing — whether that line was computed
// (seed 1, cold) or served from the cache (seed 1 again) — because the
// stream flushes before it waits, not only at the end.
func TestStreamFlushesBeforeBlocking(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	for _, tc := range []struct {
		name     string
		seeds    string
		wantHits int64
	}{
		{"computed line then blocked unit", "[1,2]", 0},
		{"cached line then blocked unit", "[1,4]", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open, once := resetGate(), sync.Once{}
			release := func() { once.Do(open) }
			defer release() // a failed assertion must not leave a worker wedged
			// The deadline turns "line 1 is stuck in the server's buffer" into
			// a failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
				strings.NewReader(`{"experiments":["srvgateeven"],"seeds":`+tc.seeds+`}`))
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatalf("no response while unit 2 is gated: %v", err)
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)

			// Unit 2 cannot finish until release(): line 1 has to arrive first.
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("line 1 did not arrive while unit 2 is gated: %v", err)
			}
			var first ResultLine
			if err := json.Unmarshal(line, &first); err != nil {
				t.Fatal(err)
			}
			if first.Seed != 1 || first.Report == "" {
				t.Fatalf("first line = %+v, want seed 1's report", first)
			}
			if st := srv.sched.Stats(); st.Reserved != 1 {
				t.Fatalf("reserved = %d while unit 2 is gated, want 1", st.Reserved)
			}
			if hits := srv.cache.Stats().Hits; hits != tc.wantHits {
				t.Errorf("cache hits = %d, want %d", hits, tc.wantHits)
			}

			release()
			rest, err := io.ReadAll(br)
			if err != nil {
				t.Fatal(err)
			}
			if lines := ndjsonLines(t, rest); len(lines) != 2 || lines[1]["done"] != true {
				t.Fatalf("rest of stream = %s", rest)
			}
		})
	}
}

// TestMixedSweepByteIdentical: a sweep whose units are [cached, miss,
// cached] streams the same bytes as its cold run, in the same order.
func TestMixedSweepByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	req := `{"experiments":["srvtest"],"scales":[0.5],"seeds":[1,2,3]}`
	post := func() []byte {
		resp, err := postSweep(t, ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, resp)
	}
	cold := post()
	warm := post() // admits all three to memory
	srv.cache.Poison(Key{Experiment: "srvtest", Seed: 2, Scale: 0.5, Code: "test-pin"})
	before := srv.cache.Stats()
	mixed := post()
	if !bytes.Equal(cold, warm) || !bytes.Equal(cold, mixed) {
		t.Fatalf("bodies differ:\ncold  %s\nwarm  %s\nmixed %s", cold, warm, mixed)
	}
	after := srv.cache.Stats()
	if after.Hits-before.Hits != 2 || after.Misses-before.Misses != 1 || after.MemHits-before.MemHits != 2 {
		t.Errorf("mixed sweep moved stats %+v -> %+v, want 2 memory hits and 1 miss", before, after)
	}
}

// stubResponse is a ResponseWriter with no connection behind it: it counts
// writes and flushes, and fails every Write after failAfter of them
// (failAfter < 0: never), which is what a vanished client looks like.
type stubResponse struct {
	header          http.Header
	writes, flushes int
	failAfter       int
}

func (w *stubResponse) Header() http.Header { return w.header }
func (w *stubResponse) WriteHeader(int)     {}
func (w *stubResponse) Flush()              { w.flushes++ }
func (w *stubResponse) Write(p []byte) (int, error) {
	if w.failAfter >= 0 && w.writes >= w.failAfter {
		return 0, errors.New("write: broken pipe")
	}
	w.writes++
	return len(p), nil
}

// cachedSweep warms an 8-unit sweep until every unit is in the memory tier
// and returns its keys.
func cachedSweep(t *testing.T, srv *Server, ts *httptest.Server) []Key {
	t.Helper()
	sreq := SweepRequest{Experiments: []string{"srvtest"}, Scales: []float64{0.5}, Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}}
	body, _ := json.Marshal(sreq)
	for i := 0; i < 2; i++ { // cold, then the disk read that admits
		resp, err := postSweep(t, ts.URL, string(body))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
	}
	keys, err := srv.units(&sreq)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.cache.Stats(); st.MemEntries != int64(len(keys)) {
		t.Fatalf("warm-up left %d of %d units in memory", st.MemEntries, len(keys))
	}
	return keys
}

// TestDisconnectDuringCachedSweep: a fully cached sweep never waits on a
// unit, so the only way it learns the client is gone is a failed write. That
// must still end as a cancelled sweep holding no slots and no goroutines.
func TestDisconnectDuringCachedSweep(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	keys := cachedSweep(t, srv, ts)
	http.DefaultClient.CloseIdleConnections()
	ts.CloseClientConnections()
	base := runtime.NumGoroutine()

	if !srv.sched.Reserve(len(keys)) {
		t.Fatal("reserve failed")
	}
	w := &stubResponse{header: http.Header{}, failAfter: 3}
	srv.streamSweep(context.Background(), newLineWriter(w), keys)

	if w.writes != 3 {
		t.Errorf("%d writes reached the client, want 3", w.writes)
	}
	if n := srv.sweepsCancelled.Load(); n != 1 {
		t.Errorf("sweepsCancelled = %d, want 1", n)
	}
	if n := srv.sweepsDone.Load(); n != 2 {
		t.Errorf("sweepsDone = %d, want only the 2 warm-up sweeps", n)
	}
	if st := srv.sched.Stats(); st.Reserved != 0 {
		t.Errorf("%d admission slots still held", st.Reserved)
	}
	waitServeGoroutinesSettle(t, base)
}

// TestCachedSweepAllocsAndFlushes pins the cost of the hit path where tier-1
// can see it: a fully cached 8-unit sweep is one Write per line, a single
// flush, and a fixed handful of allocations — none of them per unit. (The
// disk path it replaces allocated about 20 per unit.)
func TestCachedSweepAllocsAndFlushes(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	keys := cachedSweep(t, srv, ts)
	w := &stubResponse{header: http.Header{}, failAfter: -1}
	ctx := context.Background()
	sweep := func() {
		srv.sched.Reserve(len(keys))
		srv.streamSweep(ctx, newLineWriter(w), keys)
	}
	sweep()
	if w.writes != len(keys)+1 || w.flushes != 1 {
		t.Errorf("cached sweep made %d writes and %d flushes, want %d and 1", w.writes, w.flushes, len(keys)+1)
	}
	if st := srv.sched.Stats(); st.Reserved != 0 {
		t.Errorf("%d admission slots still held", st.Reserved)
	}
	const perUnit = 1 // 5 per sweep today, so one more per hit already fails
	if allocs := testing.AllocsPerRun(100, sweep); allocs > perUnit*float64(len(keys)) {
		t.Errorf("cached %d-unit sweep allocates %.0f times, budget %d per unit", len(keys), allocs, perUnit)
	}
}
