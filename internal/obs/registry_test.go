package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer exercises counters, gauges and histograms from many
// goroutines at once; run with -race to verify the synchronisation.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("hammer.count")
			h := reg.Histogram("hammer.hist", []float64{1, 10, 100})
			ga := reg.Gauge("hammer.gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				ga.Add(1)
				ga.Add(-1)
				if i%100 == 0 {
					// Concurrent snapshots must not race with writers.
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("hammer.count").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	hs := reg.Histogram("hammer.hist", nil).Snapshot()
	if hs.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum+hs.Overflow != hs.Count {
		t.Errorf("bucket counts %d + overflow %d != count %d", bucketSum, hs.Overflow, hs.Count)
	}
	if hs.Min != 0 || hs.Max != 199 {
		t.Errorf("min/max = %v/%v, want 0/199", hs.Min, hs.Max)
	}
	if g := reg.Gauge("hammer.gauge").Value(); g != 0 {
		t.Errorf("gauge = %v, want 0", g)
	}
}

func TestRegistrySharesInstances(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("Counter did not return the shared instance")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Error("Gauge did not return the shared instance")
	}
	if reg.Histogram("h", nil) != reg.Histogram("h", []float64{1, 2}) {
		t.Error("Histogram did not return the shared instance")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z", nil).Observe(1)
	reg.RegisterFunc("f", func() any { return 1 })
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dns.queries").Add(42)
	reg.Gauge("crawler.inflight").Set(3)
	h := reg.Histogram("probe.rtt_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	reg.RegisterFunc("hosts", func() any { return map[string]int64{"evil.com": 2} })

	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		Counters   map[string]int64             `json:"counters"`
		Gauges     map[string]float64           `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
		Values     map[string]map[string]int64  `json:"values"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["dns.queries"] != 42 {
		t.Errorf("counter round-trip = %d", back.Counters["dns.queries"])
	}
	if back.Gauges["crawler.inflight"] != 3 {
		t.Errorf("gauge round-trip = %v", back.Gauges["crawler.inflight"])
	}
	hs := back.Histograms["probe.rtt_ms"]
	if hs.Count != 3 || hs.Overflow != 1 || len(hs.Buckets) != 2 {
		t.Errorf("histogram round-trip = %+v", hs)
	}
	if back.Values["hosts"]["evil.com"] != 2 {
		t.Errorf("func value round-trip = %+v", back.Values)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40})
	for i := 1; i <= 40; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-20) > 5 {
		t.Errorf("p50 = %v, want ~20", q)
	}
	if q := s.Quantile(1); q != 40 {
		t.Errorf("p100 = %v, want 40", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}

func TestObserveSince(t *testing.T) {
	h := newHistogram(MillisBuckets)
	h.ObserveSince(time.Now().Add(-5 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Sum < 4 {
		t.Errorf("ObserveSince recorded %+v, want one ~5ms observation", s)
	}
}
