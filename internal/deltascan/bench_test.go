package deltascan

import (
	"bytes"
	"reflect"
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
	// squatEvery makes one new name in squatEvery squat-shaped; 0 makes
	// none, so that an epoch's churn changes no candidate.
	squatEvery int
}

func newBenchWorld(tb testing.TB) *benchWorld {
	tb.Helper()
	w := &benchWorld{store: dnsx.NewShardedStore(benchShards), m: testMatcher(), engine: NewEngine(), rng: simrand.New(2024), squatEvery: 18}
	for len(w.domains) < benchRecords {
		w.add()
	}
	if got := w.engine.Scan(w.store, w.m, 2); len(got) < benchRecords/30 {
		tb.Fatalf("fixture has only %d candidates", len(got))
	}
	return w
}

// add registers one new name, squat-shaped one time in w.squatEvery.
func (w *benchWorld) add() {
	d := w.rng.Letters(6+w.rng.Intn(8)) + ".com"
	if w.squatEvery > 0 && w.rng.Intn(w.squatEvery) == 0 {
		d = "paypal-" + d
	}
	w.domains = append(w.domains, d)
	w.store.Add(d, dnsx.RandomIP(w.rng))
}

// repoint applies one epoch of re-points only: existing names, new
// addresses.
func (w *benchWorld) repoint() {
	for i := 0; i < benchChurn; i++ {
		w.store.Add(w.domains[w.rng.Intn(len(w.domains))], dnsx.RandomIP(w.rng))
	}
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

// BenchmarkWarmEpoch times one warm Engine.Scan after an epoch of churn
// (the churn itself is applied off the clock). Mixed churn runs at two
// shares of squats among the new names: one in eighteen, where every epoch
// changes the answer and Scan copies it out, and none, where the answer
// stands and Scan hands back the previous result. The last two cases
// rescan nothing — an epoch of re-points only, and no churn at all — so
// they time the fixed cost of a Scan: reading every shard's mark.
func BenchmarkWarmEpoch(b *testing.B) {
	for _, bc := range []struct {
		name       string
		squatEvery int
		churn      func(*benchWorld)
	}{
		{"squats=1in18", 18, (*benchWorld).churn},
		{"squats=0", 0, (*benchWorld).churn},
		{"repoints", 18, (*benchWorld).repoint},
		{"unchanged", 18, func(*benchWorld) {}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := newBenchWorld(b)
			w.squatEvery = bc.squatEvery
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bc.churn(w)
				b.StartTimer()
				w.engine.Scan(w.store, w.m, 2)
			}
		})
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

// TestLoadAllocBudget holds Load to at most half an allocation per
// candidate on the benchmark-shaped spill. Loading costs a couple of
// allocations per shard (the one string its names are cut from, its
// candidate list) and a few in all; an allocation per candidate — a domain
// string, a decoded value — cannot come back unnoticed.
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
	cands := len(w.engine.out)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Load(bytes.NewReader(spill)); err != nil {
			t.Fatal(err)
		}
	})
	perCand := allocs / float64(cands)
	t.Logf("Load: %.0f allocations for %d candidates in %d shards (%.3f per candidate), %d-byte spill",
		allocs, cands, benchShards, perCand, len(spill))
	if perCand > 0.5 {
		t.Fatalf("Load allocates %.3f objects per candidate, budget 0.5", perCand)
	}
}

// TestWarmEpochWalksOnlyNewNames: on one store churned in place, a warm
// epoch runs the matcher on exactly the names the epoch added — none after
// an epoch of re-points only, none on the first scan after Load. Once the
// merge's two buffers are grown, an epoch allocates on average at most
// 1.25x the new slices it returns, so a per-name structure cannot come
// back unnoticed. An epoch that changes no candidate — new names none of
// which is a squat, or re-points only — returns the previous slice and
// allocates at most 24 KB and 4 KB respectively, so neither the copy of
// the answer nor a name buffer per rescanned shard can come back. The
// first reads ~15.6 KB (~17.9 KB under -race, where the name buffers'
// pool drops some of what it is given); the 24 KB leaves that and a
// third more.
func TestWarmEpochWalksOnlyNewNames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 233K-record store")
	}
	w := newBenchWorld(t)
	var grew, result uint64
	var last []squat.Candidate
	// scan returns the bytes the Scan allocated and whether it handed back
	// the previous Scan's slice, which counts nothing toward result.
	scan := func(when string, e *Engine, added int) (allocated uint64, same bool) {
		t.Helper()
		var out []squat.Candidate
		allocated = allocatedBytes(func() { out = e.Scan(w.store, w.m, 2) })
		same = len(out) > 0 && len(out) == len(last) && &out[0] == &last[0]
		grew += allocated
		if !same {
			result += uint64(cap(out)) * uint64(reflect.TypeOf(squat.Candidate{}).Size())
		}
		last = out
		if st := e.LastStats(); st.FullScan || st.RecordsWalked != added || st.CacheMisses != added {
			t.Fatalf("%s: stats = %+v, want %d records matched", when, st, added)
		}
		return allocated, same
	}
	unchanged := func(when string, allocated uint64, same bool, budget uint64) {
		t.Helper()
		t.Logf("%s: allocated %d bytes", when, allocated)
		if !same {
			t.Fatalf("%s changed no candidate but returned a new slice", when)
		}
		if allocated > budget {
			t.Fatalf("%s allocated %d bytes, budget %d", when, allocated, budget)
		}
	}
	churn := func(when string, e *Engine) {
		t.Helper()
		before := w.store.Len()
		w.churn()
		scan(when, e, w.store.Len()-before)
	}
	churn("first warm epoch", w.engine)
	churn("second warm epoch", w.engine)
	grew, result = 0, 0
	for i := 0; i < 8; i++ {
		churn("warm epoch", w.engine)
	}
	w.squatEvery = 0
	before := w.store.Len()
	for i := 0; i < benchChurn; i++ {
		w.add()
	}
	allocated, same := scan("epoch of new names, none a squat", w.engine, w.store.Len()-before)
	unchanged("epoch of new names, none a squat", allocated, same, 24<<10)
	w.squatEvery = 18
	w.repoint()
	allocated, same = scan("re-point epoch", w.engine, 0)
	unchanged("re-point epoch", allocated, same, 4<<10)
	t.Logf("10 warm epochs allocated %d bytes for %d bytes of new results (%.2fx)", grew, result, float64(grew)/float64(result))
	if grew > result*5/4 {
		t.Fatalf("warm epochs allocated %d bytes, budget 1.25 x the %d bytes of new results they returned", grew, result)
	}

	var buf bytes.Buffer
	if err := w.engine.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	scan("first scan after Load", loaded, 0)
	churn("warm epoch after Load", loaded)
}
