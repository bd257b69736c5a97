package serve

import (
	"errors"
	"sync"
	"time"

	"pcc/internal/exp"
)

// ErrorRecord is one quarantined failure: a trial panic or watchdog timeout
// that failed a single request without taking the daemon down. The stack (if
// any) is the panicking goroutine's, captured at recover() time — the only
// record of it once the goroutine is gone.
type ErrorRecord struct {
	Time       time.Time `json:"time"`
	Kind       string    `json:"kind"` // "panic" | "timeout" | "error"
	Experiment string    `json:"experiment"`
	Variant    string    `json:"variant"`
	Seed       int64     `json:"seed"`
	Scale      float64   `json:"scale"`
	Message    string    `json:"message"`
	Stack      string    `json:"stack,omitempty"`
}

// Ledger is a fixed-capacity ring of the most recent quarantined failures,
// served on /v1/errors. Oldest entries are evicted first.
type Ledger struct {
	mu    sync.Mutex
	ring  []ErrorRecord
	next  int
	total int64
}

// NewLedger makes a ledger keeping the last n records (minimum 1).
func NewLedger(n int) *Ledger {
	if n < 1 {
		n = 1
	}
	return &Ledger{ring: make([]ErrorRecord, 0, n)}
}

// errKind classifies a quarantined failure against the exp error taxonomy,
// for both the ledger and the in-band error line.
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

// Record appends a record of err, classified by errKind. The unit key
// supplies provenance for errors that don't carry their own.
func (l *Ledger) Record(k Key, err error) {
	rec := ErrorRecord{
		Time:       time.Now(),
		Kind:       errKind(err),
		Experiment: k.Experiment,
		Variant:    k.Variant,
		Seed:       k.Seed,
		Scale:      k.Scale,
		Message:    err.Error(),
	}
	var tpe *exp.TrialPanicError
	var tte *exp.TrialTimeoutError
	switch {
	case errors.As(err, &tpe):
		rec.Variant = tpe.Variant
		rec.Stack = string(tpe.Stack)
	case errors.As(err, &tte):
		rec.Variant = tte.Variant
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, rec)
	} else {
		l.ring[l.next] = rec
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
	l.mu.Unlock()
}

// Snapshot returns the retained records, oldest first, plus the total ever
// recorded (which may exceed len of the returned slice once the ring wraps).
func (l *Ledger) Snapshot() ([]ErrorRecord, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ErrorRecord, 0, len(l.ring))
	if len(l.ring) == cap(l.ring) {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out, l.total
}
