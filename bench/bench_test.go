package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// contract is the last line of a run's stdout.
type contract struct {
	Correct   *bool             `json:"correct"`
	Attempted *int              `json:"attempted"`
	Failed    *int              `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at -size tiny and returns its exit code, its
// contract line and the full result it appended to -out.
func runTiny(t *testing.T, workload string, trace bool, extra ...string) (int, contract, *result) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "result.ndjson")
	args := []string{"-workload", workload, "-size", "tiny", "-seed", "42", "-outdir", dir, "-out", out, "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	var stdout bytes.Buffer
	code := mainExit(append(args, extra...), &stdout, io.Discard)

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var c contract
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("%s: last stdout line is not the contract object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if c.Correct == nil || c.Attempted == nil || c.Failed == nil || c.Metrics == nil {
		t.Fatalf("%s: contract line lacks one of correct, attempted, failed, metrics", workload)
	}
	results, err := readResults(out)
	if err != nil || len(results) != 1 {
		t.Fatalf("%s: -out holds %d results, err %v", workload, len(results), err)
	}
	return code, c, results[0]
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// and holds the emitted metric names equal to the declared ones, both ways.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadTable {
		for _, trace := range []bool{false, true} {
			workload := w.name
			code, c, res := runTiny(t, workload, trace)
			if code != 0 || !*c.Correct || *c.Failed != 0 || *c.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct %v, attempted %d, failed %d: %v",
					workload, trace, code, *c.Correct, *c.Attempted, *c.Failed, res.Failures)
			}
			declared := make(map[string]string)
			for _, d := range declsFor(trace) {
				if !nameRE.MatchString(d.Name) {
					t.Errorf("declared name %q is not a contract name", d.Name)
				}
				if _, dup := declared[d.Name]; dup {
					t.Errorf("name %q is declared twice", d.Name)
				}
				declared[d.Name] = d.Unit
			}
			for name, m := range c.Metrics {
				if unit, ok := declared[name]; !ok {
					t.Errorf("%s trace=%v: emitted %q, which is not declared", workload, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %q has unit %q, declared %q", workload, trace, name, m.Unit, unit)
				}
			}
			for name := range declared {
				if _, ok := c.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared %q was not emitted", workload, trace, name)
				}
			}
			if !trace {
				for name, m := range c.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %q reads %v; it must never be 0", workload, name, m.Value)
					}
				}
			}
			if res.Env.GoVersion == "" || res.Env.GOMAXPROCS < 1 || res.Env.Sleep100usP50US <= 0 || res.Ops.SetupReps == 0 {
				t.Errorf("%s: environment block is incomplete: %+v", workload, res.Env)
			}
			if trace {
				data, err := os.ReadFile(res.TraceFile)
				var tf struct{ Spans []span }
				if err != nil || json.Unmarshal(data, &tf) != nil || len(tf.Spans) == 0 {
					t.Errorf("%s: trace file %q holds no spans (err %v)", workload, res.TraceFile, err)
				}
				for _, name := range []string{"netem.link_fwd_allocs", "sim.allocs_per_event", "core.allocs_per_pkt"} {
					if v := c.Metrics[name].Value; v >= 0.01 {
						t.Errorf("%s: %s reads %v, want 0", workload, name, v)
					}
				}
			}
		}
	}
}

// TestBrokenDigestFails feeds one deliberately wrong expected digest and
// proves a failed check is counted and turns the exit code non-zero.
func TestBrokenDigestFails(t *testing.T) {
	_, _, good := runTiny(t, "paper_suite", false)
	if len(good.Digests) == 0 {
		t.Fatal("paper_suite recorded no digests")
	}
	expect := filepath.Join(t.TempDir(), "expect.ndjson")
	if err := appendJSONLine(expect, good); err != nil {
		t.Fatal(err)
	}
	if code, c, _ := runTiny(t, "paper_suite", false, "-expect", expect); code != 0 || *c.Failed != 0 {
		t.Fatalf("the run's own digests were refused: exit %d, failed %d", code, *c.Failed)
	}

	good.Digests["fig10"] = strings.Repeat("0", 64)
	broken := filepath.Join(t.TempDir(), "broken.ndjson")
	if err := appendJSONLine(broken, good); err != nil {
		t.Fatal(err)
	}
	code, c, res := runTiny(t, "paper_suite", false, "-expect", broken)
	if code == 0 || *c.Failed != 1 || *c.Correct {
		t.Fatalf("a wrong digest gave exit %d, failed %d, correct %v; failures %v", code, *c.Failed, *c.Correct, res.Failures)
	}
}

// TestSpecIsBenchmarkJSON holds BENCHMARK.json equal to the metric tables.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
}

// TestCheckVerdicts drives -check over synthetic sets: equal sets pass, a
// slower set regresses, and a noisy set is unresolved rather than passed.
func TestCheckVerdicts(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for i, w := range walls {
			res := &result{Workload: "wan_trial", Seed: int64(i), Metrics: map[string]metric{"wall_s": {Value: w, Unit: "s"}}}
			if err := appendJSONLine(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := set("base", 1.00, 1.01, 0.99, 1.02, 0.98)
	same := set("same", 1.01, 1.00, 0.99, 1.03, 0.98)
	slow := set("slow", 1.30, 1.31, 1.29, 1.32, 1.28)
	noisy := set("noisy", 0.8, 1.6, 1.1, 2.0, 0.7)
	for _, tc := range []struct {
		b, verdict string
		code       int
	}{{same, "ok", 0}, {slow, "regressed", 1}, {noisy, "unresolved", 0}} {
		var out bytes.Buffer
		if code := runCheck(base, tc.b, &out, io.Discard); code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("-check base %s: exit %d, want %d and verdict %q:\n%s", filepath.Base(tc.b), code, tc.code, tc.verdict, out.String())
		}
	}
}

// TestQuartilesArePythons pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesArePythons(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 are %v, %v; Python gives 1, 3", q1, q3)
	}
}
