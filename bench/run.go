package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one value of the contract line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a timed quantity's spread over its samples.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// result is everything one run learned. The contract line printed last on
// stdout is a projection of it; -out appends the whole of it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Size      string             `json:"size"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Timings   map[string]summary `json:"timings"`
	// Counters are counts the packages under test export. For one seed they
	// repeat exactly from run to run and from round to round.
	Counters map[string]int64 `json:"counters"`
	// Digests are sha256 of report bytes: recorded, and gated only by -expect.
	Digests   map[string]string  `json:"digests"`
	Ops       sizing             `json:"ops"`
	SelfTimes map[string]float64 `json:"self_time_s,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	Env       environment        `json:"env"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// contractLine is the last line of stdout.
func (res *result) contractLine() map[string]any {
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	}
}

// print writes every metric by name with its unit, then the supporting
// spreads, counters and failures.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  size %s  trace %v\n",
		res.Workload, res.Seed, res.Seconds, res.Size, res.Trace)
	for _, d := range declsFor(res.Trace) {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-32s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if s, ok := res.Timings[d.Name]; ok {
			fmt.Fprintf(w, "  (min %.6g  max %.6g  n %d)", s.Min, s.Max, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(res.Counters) {
		fmt.Fprintf(w, "  count %-26s %16d\n", k, res.Counters[k])
	}
	for _, k := range sortedKeys(res.SelfTimes) {
		fmt.Fprintf(w, "  self  %-26s %16.6f s\n", k, res.SelfTimes[k])
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// run is the state a workload body works on.
type run struct {
	o   options
	sz  sizing
	tr  *tracer // nil on an untraced run
	res *result

	values  map[string]float64
	setups  []float64
	walls   []float64
	cpus    []float64
	expects map[string]string
}

// maxFailures bounds the failure messages kept; the count is never bounded.
const maxFailures = 20

// setup times one repetition of the workload's set-up. Bodies call it
// setupReps times; the last repetition's products are the ones measured on.
func (r *run) setup(fn func()) {
	t0 := time.Now()
	fn()
	r.setups = append(r.setups, time.Since(t0).Seconds())
}

// round times one round of the workload's fixed work.
func (r *run) round(fn func()) {
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	r.walls = append(r.walls, time.Since(t0).Seconds())
	r.cpus = append(r.cpus, cpuSeconds()-c0)
}

// settle collects twice, which also empties every sync.Pool, so what runs
// next starts from the live heap alone. The exp pool runs sweeps at GOGC 400
// and a whole run sees about ten collections: without this, ru_maxrss reads
// where in the collector's cycle one operation happened to hand over to the
// next (paper_suite: 263 to 317 MB on identical work), not what either needs.
func settle() {
	runtime.GC()
	runtime.GC()
}

// attempt counts n operations of which failed did not succeed.
func (r *run) attempt(n, failed int, what string) {
	r.res.Attempted += n
	if failed > 0 {
		r.res.Failed += failed
		r.fail("%d of %d %s failed", failed, n, what)
	}
}

// check counts one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	if len(r.res.Failures) < maxFailures {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric value; samples, when given, record its spread.
func (r *run) set(name string, v float64, samples ...float64) {
	r.values[name] = v
	if len(samples) > 0 {
		r.res.Timings[name] = summarize(samples)
	}
}

func (r *run) count(name string, v int64) { r.res.Counters[name] = v }

// digest records the sha256 of report bytes and, under -expect, checks it.
func (r *run) digest(name string, data []byte) {
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	r.res.Digests[name] = h
	if want, ok := r.expects[name]; ok {
		r.check(h == want, "digest %s is %s, expected %s", name, h, want)
	}
}

// scratchDir returns a fresh directory under the output directory.
func (r *run) scratchDir(name string) (string, error) {
	if err := os.MkdirAll(r.o.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.o.outDir, name+"-")
}

// execute runs one workload and assembles its result.
func execute(o options, body func(r *run)) (*result, error) {
	res := &result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Size: o.size, Trace: o.trace,
		Metrics:  map[string]metric{},
		Timings:  map[string]summary{},
		Counters: map[string]int64{},
		Digests:  map[string]string{},
	}
	r := &run{o: o, sz: sizeFor(o.size, o.seconds), res: res, values: map[string]float64{}}
	res.Ops = r.sz
	if o.trace {
		r.tr = newTracer(o.workload)
	}
	if o.expect != "" {
		exp, err := loadExpected(o.expect, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		r.expects = exp
	}

	body(r)

	if len(r.setups) == 0 || len(r.walls) == 0 {
		return nil, fmt.Errorf("workload %s recorded no set-up or no round", o.workload)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("setup_s", median(r.setups), r.setups...)
	// Rounds repeat the same deterministic work, and a neighbour on the box
	// only ever adds time, so the fastest round is the estimate of its cost.
	r.set("wall_s", slices.Min(r.walls), r.walls...)
	r.set("cpu_s", slices.Min(r.cpus), r.cpus...)
	r.set("alloc_mb", float64(ms.TotalAlloc)/(1<<20))
	r.set("peak_rss_mb", peakRSSMB())

	if o.trace {
		runProbes(r)
		r.traceMetrics(sum(r.walls))
		file, err := r.tr.write(o.outDir)
		if err != nil {
			return nil, err
		}
		res.TraceFile = file
	}

	for _, d := range declsFor(o.trace) {
		v, ok := r.values[d.Name]
		if !ok {
			if !d.WorkloadOnly {
				return nil, fmt.Errorf("metric %s was not measured", d.Name)
			}
			v = 0 // a counter of a layer this workload cannot reach
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	sleepUS, probed := r.values["transport.sleep_100us_p50_us"]
	if !probed {
		sleepUS = sleepProbeUS(50)
	}
	res.Env = readEnvironment(sleepUS)
	res.Correct = res.Failed == 0
	return res, nil
}

// loadExpected reads the digests recorded for (workload, seed) in a result
// file written by -out.
func loadExpected(path, workload string, seed int64) (map[string]string, error) {
	results, err := readResults(path)
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.Workload == workload && res.Seed == seed {
			return res.Digests, nil
		}
	}
	return nil, fmt.Errorf("%s holds no result for workload %s seed %d", path, workload, seed)
}

// readResults reads a file of JSON result lines.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	dec := json.NewDecoder(f)
	for dec.More() {
		res := new(result)
		if err := dec.Decode(res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss, the
// figure /proc/self/status reports as VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func summarize(samples []float64) summary {
	s := sortedCopy(samples)
	return summary{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func median(v []float64) float64 { return medianSorted(sortedCopy(v)) }

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the interquartile mean of sorted samples: the mean of their
// middle half. It is the "typical" latency op_ms_mid reports — the median's
// robustness without its jumps when a few unequal operations trade places.
func midMean(s []float64) float64 {
	lo, hi := len(s)/4, len(s)-len(s)/4
	return sum(s[lo:hi]) / float64(hi-lo)
}

// percentileSorted is the nearest-rank percentile of sorted samples.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
