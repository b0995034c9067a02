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
//   - EventHandler: a log/slog handler that files every event carrying
//     a "domain" attr into that domain's provenance record. The event
//     name is the log message, a constant lowercase.dotted literal
//     (enforced by squatvet's metricname analyzer).
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
// methods on a nil *Collector are no-ops, so instrumented code needs no
// "tracing enabled?" branches.
package trace

import (
	"context"
	"log/slog"
	"strings"
)

// Event is one log event attributed to a domain's provenance record.
// Attrs marshal with sorted keys (encoding/json map behaviour), so an
// event's byte form is deterministic for fixed contents. An event carries
// no time: records must stay comparable across runs, and wall time is
// the one field that never is.
type Event struct {
	// Level is the lowercase severity name ("debug", "info", "warn",
	// "error").
	Level string `json:"level"`
	// Component scopes the emitter ("crawler", ...): the logger's
	// With("component", …).
	Component string `json:"component,omitempty"`
	// Name is the event identifier, the log message: a constant
	// lowercase.dotted literal (squatvet's metricname analyzer enforces
	// the grammar).
	Name string `json:"event"`
	// Attrs carries the event's annotations.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// EventHandler returns a slog.Handler that passes every record on to next
// and, when the record carries a string "domain" attr, also files it as
// an Event in c's buffer for that domain before the log call returns. A
// retry or failure event thus reaches the domain's evidence record. next
// decides which levels are enabled, for the attribution too.
func EventHandler(next slog.Handler, c *Collector) slog.Handler {
	return &eventHandler{next: next, col: c}
}

type eventHandler struct {
	next      slog.Handler
	col       *Collector
	component string
	attrs     []slog.Attr // bound by WithAttrs, component excluded
}

func (h *eventHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.next.Enabled(ctx, level)
}

func (h *eventHandler) Handle(ctx context.Context, r slog.Record) error {
	ev := Event{Level: strings.ToLower(r.Level.String()), Component: h.component, Name: r.Message}
	add := func(a slog.Attr) bool {
		if ev.Attrs == nil {
			ev.Attrs = make(map[string]any, len(h.attrs)+r.NumAttrs())
		}
		ev.Attrs[a.Key] = a.Value.Resolve().Any()
		return true
	}
	for _, a := range h.attrs {
		add(a)
	}
	r.Attrs(add)
	if domain, ok := ev.Attrs["domain"].(string); ok {
		h.col.AddEvent(domain, ev)
	}
	return h.next.Handle(ctx, r)
}

func (h *eventHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	c := *h
	c.next = h.next.WithAttrs(attrs)
	c.attrs = h.attrs[:len(h.attrs):len(h.attrs)] // appends must not share h's array
	for _, a := range attrs {
		if a.Key == "component" {
			c.component = a.Value.String()
			continue
		}
		c.attrs = append(c.attrs, a)
	}
	return &c
}

// WithGroup qualifies next's output only: attributed events keep their
// attrs flat, keyed by the attr's own name.
func (h *eventHandler) WithGroup(name string) slog.Handler {
	c := *h
	c.next = h.next.WithGroup(name)
	return &c
}
