package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Times are nanoseconds since the tracer started. Parent is the ID
// of the span that caused this one (0 for a root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`

	tr *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same call sites serve the untraced run; a tracer can
// also be switched off for a stretch (the untraced half of a traced run).
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	off   bool
	spans []*span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// setOff pauses or resumes recording.
func (t *tracer) setOff(off bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.off = off
	t.mu.Unlock()
}

// start opens a span named "<layer>.<call>" under parent (nil for a root).
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return nil
	}
	s := &span{ID: int64(len(t.spans) + 1), Name: name, Workload: t.workload, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.Start = time.Since(t.epoch).Nanoseconds()
	return s
}

// end closes the span; a nil span (untraced run) is a no-op.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.tr.epoch).Nanoseconds()
	s.tr.mu.Lock()
	s.End = now
	s.tr.mu.Unlock()
}

// layerOf is the layer a span name belongs to: the part before the first
// dot ("squat.MatchBytes" -> "squat").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children — parallel
// workers — are counted once).
func selfTimes(spans []*span) map[int64]int64 {
	children := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerSelfMS sums self time per layer, in milliseconds.
func (t *tracer) layerSelfMS() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for id, ns := range selfTimes(t.spans) {
		out[layerOf(t.spans[id-1].Name)] += float64(ns) / 1e6
	}
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
