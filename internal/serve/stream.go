package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// ResultLine is one NDJSON line of a sweep stream: the unit it describes and
// either its report text or a quarantined error. Lines are emitted in unit
// order, so successful bodies are byte-identical across runs — there are no
// timestamps or cache markers here by design (cache behaviour is observable
// on /v1/stats instead).
type ResultLine struct {
	Experiment string     `json:"experiment"`
	Variant    string     `json:"variant"`
	Seed       int64      `json:"seed"`
	Scale      float64    `json:"scale"`
	Report     string     `json:"report,omitempty"`
	Error      *LineError `json:"error,omitempty"`
}

// LineError is the in-band form of a quarantined unit failure. The full
// stack stays in the ledger; the stream carries only kind and message.
type LineError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// SummaryLine terminates every stream — complete, failed, or cancelled — so
// a client can distinguish a finished sweep from a torn connection.
type SummaryLine struct {
	Done      bool `json:"done"`
	Cancelled bool `json:"cancelled,omitempty"`
	Units     int  `json:"units"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed,omitempty"`
}

// marshalResult renders a unit's result to the exact bytes that are both
// streamed and cached (no trailing newline). Marshalling is deterministic —
// fixed field order, fixed float formatting — which is what makes "served
// from cache" and "recomputed" byte-identical.
func marshalResult(k Key, report string) []byte {
	b, err := json.Marshal(ResultLine{
		Experiment: k.Experiment, Variant: k.Variant,
		Seed: k.Seed, Scale: k.Scale, Report: report,
	})
	if err != nil {
		// A Report is strings all the way down; this cannot fail.
		panic(err)
	}
	return b
}

// lineWriter serializes NDJSON writes to one response. Lines are buffered by
// the ResponseWriter; the stream flushes whenever it would otherwise wait —
// before blocking on a unit still being computed, and after the summary — so
// clients see progress trial-by-trial while a run of cached units costs one
// flush, not one per line.
type lineWriter struct {
	mu    sync.Mutex
	w     io.Writer
	f     http.Flusher
	buf   []byte // the line being written plus its newline: one Write per line
	dirty bool   // written since the last flush
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{w: w}
	lw.f, _ = w.(http.Flusher)
	return lw
}

// writeRaw emits pre-marshalled line bytes plus the newline. It does not
// flush, and it never writes to line (cached payloads are shared).
func (lw *lineWriter) writeRaw(line []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf = append(append(lw.buf[:0], line...), '\n')
	lw.dirty = true
	_, err := lw.w.Write(lw.buf)
	return err
}

// flush pushes everything written so far to the client.
func (lw *lineWriter) flush() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.dirty && lw.f != nil {
		lw.f.Flush()
	}
	lw.dirty = false
}

// writeJSON marshals v and emits it as one line.
func (lw *lineWriter) writeJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return lw.writeRaw(b)
}
