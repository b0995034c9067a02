package deltascan

import (
	"bytes"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// The fixture has the shape of the benchmark's rescan-delta workload:
// 233K records in 2,048 shards, about one name in eighteen a candidate,
// and epochs that touch 0.1 % of the records — half re-points of existing
// names, half new registrations.
const (
	benchRecords = 233_000
	benchShards  = 2048
	benchChurn   = benchRecords / 1000
)

type benchWorld struct {
	store   *dnsx.Store
	m       *squat.Matcher
	engine  *Engine
	domains []string
	rng     *simrand.RNG
}

func newBenchWorld(tb testing.TB) *benchWorld {
	tb.Helper()
	w := &benchWorld{store: dnsx.NewShardedStore(benchShards), m: testMatcher(), engine: NewEngine(), rng: simrand.New(2024)}
	for len(w.domains) < benchRecords {
		w.add()
	}
	if got := w.engine.Scan(w.store, w.m, 2); len(got) < benchRecords/30 {
		tb.Fatalf("fixture has only %d candidates", len(got))
	}
	return w
}

// add registers one new name, squat-shaped one time in eighteen.
func (w *benchWorld) add() {
	d := w.rng.Letters(6+w.rng.Intn(8)) + ".com"
	if w.rng.Intn(18) == 0 {
		d = "paypal-" + d
	}
	w.domains = append(w.domains, d)
	w.store.Add(d, dnsx.RandomIP(w.rng))
}

// churn applies one epoch of mixed churn to the store.
func (w *benchWorld) churn() {
	for i := 0; i < benchChurn; i++ {
		if i%2 == 0 {
			w.store.Add(w.domains[w.rng.Intn(len(w.domains))], dnsx.RandomIP(w.rng))
		} else {
			w.add()
		}
	}
}

func (w *benchWorld) cacheEntries() int {
	n := 0
	for _, sh := range w.engine.shards {
		n += len(sh.cache)
	}
	return n
}

// BenchmarkWarmEpoch times one warm Engine.Scan after an epoch of churn
// (the churn itself is applied off the clock).
func BenchmarkWarmEpoch(b *testing.B) {
	w := newBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.churn()
		b.StartTimer()
		w.engine.Scan(w.store, w.m, 2)
	}
}

// BenchmarkSpillRoundTrip times Save into memory plus Load from it — the
// restart path, less the scan that follows.
func BenchmarkSpillRoundTrip(b *testing.B) {
	w := newBenchWorld(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.engine.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		if _, err := Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocBudget holds Load to at most a quarter of an allocation per
// cached entry on the benchmark-shaped spill. Loading costs a handful of
// allocations per shard (its state, the one string its names are cut
// from, its map, its candidate list); an allocation per entry — a domain
// string, a decoded JSON value — cannot come back unnoticed.
func TestLoadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 233K-record store")
	}
	w := newBenchWorld(t)
	var buf bytes.Buffer
	if err := w.engine.Save(&buf); err != nil {
		t.Fatal(err)
	}
	spill := buf.Bytes()
	entries := w.cacheEntries()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Load(bytes.NewReader(spill)); err != nil {
			t.Fatal(err)
		}
	})
	perEntry := allocs / float64(entries)
	t.Logf("Load: %.0f allocations for %d entries in %d shards (%.3f per entry), %d-byte spill",
		allocs, entries, benchShards, perEntry, len(spill))
	if perEntry > 0.25 {
		t.Fatalf("Load allocates %.3f objects per cached entry, budget 0.25", perEntry)
	}
}
