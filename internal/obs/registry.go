// Package obs is the pipeline-wide observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms) whose
// snapshots carry the Go runtime's own health samples, and a debug HTTP
// endpoint exposing it plus pprof. Stage, crawl and round timelines are
// runtime/trace tasks and regions, captured at /debug/pprof/trace.
//
// The paper's system processed a 224M-record DNS snapshot and ~1M crawled
// pages; knowing where time and errors go is a precondition for sharding or
// caching any of it. Every hot path of the reproduction (DNS server/prober,
// squatting matcher, crawler pool, pipeline stages) reports here, and the
// registry is snapshot-able as JSON so benches and the monitor can persist
// per-stage accounting next to their artifacts.
//
// All of obs is stdlib-only and nil-tolerant: resolving a metric from a nil
// *Registry returns a live but unregistered instance, so instrumented
// components need no "metrics enabled?" branches on their hot paths.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//squat:hot
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// atomicFloat is a float64 with atomic load/store/add via bit casting.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

//squat:hot
func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Gauge is an instantaneous float64 value (queue depths, last durations).
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add shifts the gauge by delta (use +1/-1 for in-flight tracking).
func (g *Gauge) Add(delta float64) { g.v.add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram accumulates observations into fixed buckets. Observe is
// lock-free; Snapshot is approximate under concurrent writes (counts may
// trail sums by in-flight observations), which is fine for monitoring.
type Histogram struct {
	bounds  []float64 // sorted finite upper bounds
	buckets []atomic.Int64
	over    atomic.Int64 // observations above the last bound
	count   atomic.Int64
	sum     atomicFloat
	minB    atomic.Uint64 // float bits, initialised to +Inf
	maxB    atomic.Uint64 // float bits, initialised to -Inf
}

// MillisBuckets is the default bound set for durations in milliseconds,
// spanning sub-millisecond DNS handling to multi-second crawl rounds.
var MillisBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// MicrosBuckets is the default bound set for per-item scan times in
// microseconds (e.g. one matcher classification).
var MicrosBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// CountBuckets is a generic bound set for small cardinalities (batch sizes,
// redirect-chain lengths).
var CountBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs))}
	h.minB.Store(math.Float64bits(math.Inf(1)))
	h.maxB.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
//
//squat:hot
func (h *Histogram) Observe(v float64) {
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.buckets) {
		h.buckets[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	h.sum.add(v)
	for {
		old := h.minB.Load()
		if v >= math.Float64frombits(old) || h.minB.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxB.Load()
		if v <= math.Float64frombits(old) || h.maxB.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the elapsed time since start, in milliseconds.
// Pair with MillisBuckets.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// v <= Le that fell in no lower bucket.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the JSON-able state of a Histogram. P50/P95/P99
// are the bucket-interpolated quantiles (see Quantile), precomputed so
// /metrics consumers and SLO rollups need no bucket math of their own.
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Mean     float64  `json:"mean"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	P50      float64  `json:"p50"`
	P95      float64  `json:"p95"`
	P99      float64  `json:"p99"`
	Buckets  []Bucket `json:"buckets"`
	Overflow int64    `json:"overflow"` // observations above the last bound
}

// Snapshot captures the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		Sum:      h.sum.load(),
		Buckets:  make([]Bucket, len(h.bounds)),
		Overflow: h.over.Load(),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = Bucket{Le: b, Count: h.buckets[i].Load()}
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.Min = math.Float64frombits(h.minB.Load())
		s.Max = math.Float64frombits(h.maxB.Load())
		s.P50 = s.Quantile(0.50)
		s.P95 = s.Quantile(0.95)
		s.P99 = s.Quantile(0.99)
	}
	return s
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within buckets. Values in the overflow bucket report the highest bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	lower := s.Min
	for _, b := range s.Buckets {
		if float64(cum+b.Count) >= rank && b.Count > 0 {
			frac := (rank - float64(cum)) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			lo := lower
			if lo < s.Min {
				lo = s.Min
			}
			hi := b.Le
			if hi > s.Max {
				hi = s.Max
			}
			if hi < lo {
				hi = lo
			}
			return lo + frac*(hi-lo)
		}
		cum += b.Count
		lower = b.Le
	}
	return s.Max
}

// Registry is a concurrency-safe namespace of metrics. Metrics are created
// on first resolution and shared thereafter; components resolve their
// handles once at construction so hot paths pay only an atomic op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() any{},
	}
}

// Counter returns the named counter, creating it if needed. On a nil
// registry it returns a live but unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds if needed (nil bounds default to MillisBuckets). The bounds of the
// first creation win; later callers share the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = MillisBuckets
	}
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterFunc exposes an arbitrary JSON-able value in snapshots under the
// given name (e.g. a per-host failure map owned by a component). The
// function must be safe for concurrent calls.
func (r *Registry) RegisterFunc(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is the JSON-able state of a whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Values     map[string]any               `json:"values,omitempty"`
}

// Snapshot captures every metric, plus the runtime samples as gauges (see
// readRuntime). Safe to call while writers are active. Each call reads the
// runtime's metrics, so it belongs at /metrics, a final flush or an
// artifact, never on a hot path.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() any, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.RUnlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	readRuntime(s.Gauges)
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	if len(funcs) > 0 {
		s.Values = map[string]any{}
		for k, fn := range funcs {
			s.Values[k] = fn()
		}
	}
	return s
}

// SLOEntry is one histogram's latency rollup: the quantiles an SLO is
// written against, without the bucket detail.
type SLOEntry struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SLORollup extracts per-histogram quantile rollups from the snapshot
// for histograms whose name starts with prefix ("" selects all), sorted
// by name. Empty histograms are skipped — a zero-observation stage has
// no latency distribution to report against.
func (s Snapshot) SLORollup(prefix string) []SLOEntry {
	out := make([]SLOEntry, 0, len(s.Histograms))
	for name, h := range s.Histograms {
		if h.Count == 0 || !strings.HasPrefix(name, prefix) {
			continue
		}
		out = append(out, SLOEntry{Name: name, Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99, Max: h.Max})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
