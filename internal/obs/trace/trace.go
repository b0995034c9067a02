// Package trace is the verdict-provenance layer of the observability
// stack: it explains *why* a domain was flagged, not just how long the
// stages took.
//
// The paper's elite-phishing verdicts hinge on which evidence fired —
// squatting type, confusable skeleton, classifier vote margin — and an
// analyst auditing a flagged domain needs that trail after the fact
// (PhishReplicant and PhishSnap both ship analyst-facing explanations for
// exactly this reason). The package provides three surfaces over one
// schema:
//
//   - Record: the per-domain evidence tree (matcher rule, cache
//     provenance, per-profile crawl/ML/verdict evidence, attributed
//     retry/fault events), assembled by internal/core and persisted as a
//     gzip+JSONL store (see store.go).
//   - Logger: a leveled, component-scoped structured JSONL event log.
//     Event names follow the metric-identifier grammar (constant
//     lowercase.dotted literals, enforced by squatvet's eventname
//     analyzer); timestamps come from the sanctioned obs.Stopwatch seam.
//   - Collector: concurrency-safe accumulation — head-sampled scan marks
//     from the matcher hot loop (sampled by domain hash, so the sample
//     set is identical at any worker count), always-on records for
//     flagged verdicts, and a bounded per-domain buffer of attributable
//     events.
//
// Provenance is observational, never load-bearing: nothing in this
// package feeds back into a verdict, a sort key, or a cache fingerprint,
// and records deliberately carry no wall-clock values so the same run
// produces byte-identical records at any parallelism.
//
// Like the rest of obs, everything is stdlib-only and nil-tolerant:
// methods on a nil *Logger or nil *Collector are no-ops, so instrumented
// code needs no "tracing enabled?" branches.
package trace

import (
	"encoding/json"
	"io"
	"sync"

	"squatphi/internal/obs"
)

// Level is an event severity.
type Level int8

// Severity levels, in ascending order.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

var levelNames = [...]string{"debug", "info", "warn", "error"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return "invalid"
	}
	return levelNames[l]
}

// Attr is one key=value event annotation.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: value} }

// Int64 builds a 64-bit integer attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Event is one structured log line. Attrs marshal with sorted keys
// (encoding/json map behaviour), so a line's byte form is deterministic
// for fixed contents. Events attributed into provenance Records have TMS
// zeroed — records must stay comparable across runs, and wall time is
// the one field that never is.
type Event struct {
	// TMS is the emission time in milliseconds since the Logger started.
	TMS float64 `json:"t_ms"`
	// Level is the severity name ("debug", "info", "warn", "error").
	Level string `json:"level"`
	// Component scopes the emitter ("core", "crawler", ...).
	Component string `json:"component,omitempty"`
	// Name is the event identifier: a constant lowercase.dotted literal
	// (squatvet's eventname analyzer enforces the grammar).
	Name string `json:"event"`
	// Attrs carries the event's annotations.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// loggerCore is the shared state behind every component-scoped Logger
// view: one sink, one clock, one minimum level.
type loggerCore struct {
	mu    sync.Mutex
	w     io.Writer
	min   Level
	sw    obs.Stopwatch
	clock func() float64 // millis since start; test seam, defaults to sw.Millis
	trace *Collector
}

// Logger writes leveled structured events as JSON lines. Component
// returns scoped views sharing the same sink and clock; all views are
// safe for concurrent use. The zero or nil Logger discards everything.
type Logger struct {
	core      *loggerCore
	component string
}

// NewLogger builds a logger writing events at or above min to w. The
// event clock starts now (an obs.Stopwatch — the sanctioned wall-time
// seam), so TMS values are relative to logger construction.
func NewLogger(w io.Writer, min Level) *Logger {
	core := &loggerCore{w: w, min: min, sw: obs.StartStopwatch()}
	core.clock = core.sw.Millis
	return &Logger{core: core}
}

// AttachCollector routes events carrying a "domain" attribute into c's
// per-domain event buffer, so retry/fault events become attributable to
// the domain's provenance record.
func (l *Logger) AttachCollector(c *Collector) {
	if l == nil || l.core == nil {
		return
	}
	l.core.mu.Lock()
	defer l.core.mu.Unlock()
	l.core.trace = c
}

// Component returns a view of the logger that stamps every event with
// the given component name. Views share the sink, clock and level.
func (l *Logger) Component(name string) *Logger {
	if l == nil || l.core == nil {
		return nil
	}
	return &Logger{core: l.core, component: name}
}

// Event writes one structured event. name must be a constant
// lowercase.dotted literal (enforced by squatvet's eventname analyzer).
// Events below the logger's minimum level are dropped.
func (l *Logger) Event(level Level, name string, attrs ...Attr) {
	if l == nil || l.core == nil || level < l.core.min {
		return
	}
	ev := Event{Level: level.String(), Component: l.component, Name: name}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			ev.Attrs[a.Key] = a.Value
		}
	}
	core := l.core
	core.mu.Lock()
	ev.TMS = core.clock()
	var line []byte
	if core.w != nil {
		if b, err := json.Marshal(ev); err == nil {
			line = append(b, '\n')
		}
	}
	if line != nil {
		_, _ = core.w.Write(line)
	}
	col := core.trace
	core.mu.Unlock()

	if col != nil && ev.Attrs != nil {
		if dom, ok := ev.Attrs["domain"].(string); ok && dom != "" {
			ev.TMS = 0 // records must stay comparable across runs
			col.AddEvent(dom, ev)
		}
	}
}

// Debug emits a debug-level event.
func (l *Logger) Debug(name string, attrs ...Attr) { l.Event(LevelDebug, name, attrs...) }

// Info emits an info-level event.
func (l *Logger) Info(name string, attrs ...Attr) { l.Event(LevelInfo, name, attrs...) }

// Warn emits a warn-level event.
func (l *Logger) Warn(name string, attrs ...Attr) { l.Event(LevelWarn, name, attrs...) }

// Error emits an error-level event.
func (l *Logger) Error(name string, attrs ...Attr) { l.Event(LevelError, name, attrs...) }
