package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed region of a pipeline run. Spans nest via context:
// StartSpan under an active span attaches a child, so a full round records
// as a tree (round -> probe/match/crawl/classify -> per-batch children).
// A root span whose context carries a Recorder is recorded there on End.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	err      string
	attrs    map[string]string
	children []*Span
	rec      *Recorder // set on roots only
	ended    bool
}

type spanKey struct{}
type recorderKey struct{}

// WithRecorder returns a context whose future root spans are recorded in
// rec when they end.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// SpanFrom returns the active span of the context, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a span. If the context holds an active span the new one
// becomes its child; otherwise it is a root, recorded (on End) into the
// context's Recorder if one was attached via WithRecorder. Spans created
// from a bare context are detached but still usable — instrumented code
// never needs to check whether tracing is on.
//
// Child attachment is lock-protected and allowed even on an ended parent
// (a straggling worker's sub-span still belongs in the trace); recorder
// snapshots taken between End and the late attach simply miss the child,
// they never observe a torn slice.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	if parent := SpanFrom(ctx); parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	} else if rec, ok := ctx.Value(recorderKey{}).(*Recorder); ok {
		s.rec = rec
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr attaches a key=value annotation (candidate counts, batch sizes).
// Calls after End are dropped: an ended span may already be snapshotted
// from the recorder, and a late worker-goroutine write must not make two
// reads of the same trace disagree.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
}

// Fail tags the span with an error without ending it. Like SetAttr,
// calls after End are dropped.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.err = err.Error()
	}
	s.mu.Unlock()
}

// End closes the span; a root span is recorded into its Recorder. End is
// idempotent.
func (s *Span) End() { s.EndWith(nil) }

// EndWith tags the span with err (if non-nil) and ends it.
func (s *Span) EndWith(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	if err != nil {
		s.err = err.Error()
	}
	rec := s.rec
	s.mu.Unlock()
	if rec != nil {
		rec.add(s)
	}
}

// Name returns the span name.
func (s *Span) Name() string { return s.name }

// SpanSnapshot is the JSON-able form of a span tree.
type SpanSnapshot struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	InProgress bool              `json:"in_progress,omitempty"`
	Err        string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanSnapshot    `json:"children,omitempty"`
}

// Snapshot captures the span tree. Safe while descendants are still
// running; open spans report their duration so far and in_progress=true.
func (s *Span) Snapshot() SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:       s.name,
		Start:      s.start,
		InProgress: !s.ended,
		Err:        s.err,
	}
	if s.ended {
		snap.DurationMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
	} else {
		snap.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			snap.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// Recorder keeps the last N root spans in a ring buffer, so the debug
// endpoint can dump recent pipeline rounds without unbounded growth.
type Recorder struct {
	mu   sync.Mutex
	buf  []*Span
	next int
}

// NewRecorder returns a recorder holding up to n root spans (default 32).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 32
	}
	return &Recorder{buf: make([]*Span, 0, n)}
}

func (r *Recorder) add(root *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, root)
	} else {
		r.buf[r.next] = root
		r.next = (r.next + 1) % cap(r.buf)
	}
}

// Traces returns snapshots of the retained root spans, newest first.
func (r *Recorder) Traces() []SpanSnapshot {
	r.mu.Lock()
	roots := make([]*Span, 0, len(r.buf))
	// Oldest-first reconstruction of the ring, then reverse.
	for i := 0; i < len(r.buf); i++ {
		roots = append(roots, r.buf[(r.next+i)%len(r.buf)])
	}
	r.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(roots))
	for i := len(roots) - 1; i >= 0; i-- {
		out = append(out, roots[i].Snapshot())
	}
	return out
}
