package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one round share Rep; Parent is the id of the span that caused
// this one, -1 for a root. Count is above 1 for a span that stands for many
// short calls accumulated by a worker (trial_churn's per-trial calls).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Count    int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: every method is a no-op, which is the untraced run.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name, layer string, parent, rep int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, StartNS: now, Parent: parent, Workload: t.workload, Rep: rep})
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// aggregate records one span standing for count short calls that took d
// altogether, placed offset after the start of its parent.
func (t *tracer) aggregate(name, layer string, parent, rep int, count int64, offset, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].StartNS + offset.Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Layer: layer,
		StartNS: start, EndNS: start + d.Nanoseconds(), Parent: parent, Workload: t.workload, Rep: rep, Count: count})
	t.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: every span's duration
// minus the part of it its child spans cover. Children that overlap cover
// their union once.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNS < t.spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNS, reach), min(t.spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Layer] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// write stores the spans as bench/out/trace_<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+t.workload+".json")
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		SelfS    map[string]float64 `json:"self_time_s"`
		Spans    []span             `json:"spans"`
	}{t.workload, t.selfTimes(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// traceLayers are the layers whose self-time share is a declared metric;
// "bench" is the benchmark's own code between its calls into the packages.
var traceLayers = []string{"bench", "exp", "sim", "topogen", "serve"}

// traceMetrics derives the trace's own metrics. The overhead is the spans
// recorded times the measured cost of recording one, over the traced wall:
// tracing here is only the benchmark's own begin/end calls, so that product
// is all of it, and a run needs no untraced twin to report it.
func (r *run) traceMetrics(workloadWall float64) {
	self := r.tr.selfTimes()
	r.res.SelfTimes = self
	total := 0.0
	for _, v := range self {
		total += v
	}
	for _, layer := range traceLayers {
		share := 0.0
		if total > 0 {
			share = self[layer] / total
		}
		r.set("trace.self_frac."+layer, share)
	}
	// A span that stands for many calls cost one clock pair per call.
	n, recorded := len(r.tr.spans), int64(0)
	for _, s := range r.tr.spans {
		recorded += max(1, s.Count)
	}
	r.set("trace.spans", float64(n))
	r.count("trace.spans", int64(n))
	r.set("trace.overhead_frac", float64(recorded)*r.values["trace.span_ns"]/1e9/workloadWall)
}
