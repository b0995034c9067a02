package serve

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// serialCandidates is the slow reference for a coordinator's sweep: every
// store record through Matcher.Match, sorted by domain.
func serialCandidates(store *dnsx.Store, m *squat.Matcher) []squat.Candidate {
	var out []squat.Candidate
	store.Range(func(r dnsx.Record) bool {
		if cand, ok := m.Match(r.Domain); ok {
			out = append(out, cand)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// TestLookupMatchesSerialModel drives a seeded schedule of Lookup, Apply
// and re-Warm against a serial model — a set of the names the store holds
// and Matcher.Match — and checks every answer: Known is the model's
// membership, Matched is the matcher's, and the sweep equals the serial
// reference at the end.
func TestLookupMatchesSerialModel(t *testing.T) {
	store, m, cands := testWorld(t, 1500, 8, 48)
	c := New(Config{Shards: store.NumShards(), Matcher: m})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}
	model := map[string]bool{}
	for _, d := range store.Domains() {
		model[d] = true
	}
	squats := []string{"paypa1.com", "faceb00k.com", "paypal-login.com", "facebook-secure.net", "paypall.com"}
	rng := simrand.New(302)
	pick := func() string {
		switch p := rng.Float64(); {
		case p < 0.5:
			return store.Domains()[rng.Intn(store.Len())]
		case p < 0.7:
			return simrand.Pick(rng, squats)
		default:
			return rng.Letters(8) + ".com"
		}
	}
	for step := 0; step < 3000; step++ {
		var v Verdict
		switch p := rng.Float64(); {
		case p < 0.01:
			if err := c.Warm(store, serialCandidates(store, m)); err != nil {
				t.Fatal(err)
			}
			continue
		case p < 0.21:
			d := pick()
			v = c.Apply(d, [4]byte{10, 0, byte(step >> 8), byte(step)})
			model[dnsx.Normalize(d)] = true
		default:
			v = c.Lookup(pick())
		}
		if _, want := m.Match(v.Domain); v.Matched != want {
			t.Fatalf("step %d: %+v, matcher says matched=%v", step, v, want)
		}
		if v.Known != model[v.Domain] {
			t.Fatalf("step %d: %+v, model says known=%v", step, v, model[v.Domain])
		}
	}
	if got, want := c.Candidates(), serialCandidates(store, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep diverged from the serial reference: %d vs %d candidates", len(got), len(want))
	}
}

// TestKnownImpliesMatchedUnderApply races Lookups of fresh squatting names
// against the Applys that register them. A shard answers Known from
// the store and Matched from its candidates, so a reader that saw the
// store write before the candidate would answer a known squat unmatched.
// Run under -race (make race-short) this is also the data-race gate for
// the shard/store lock order.
func TestKnownImpliesMatchedUnderApply(t *testing.T) {
	store, m, cands := testWorld(t, 500, 8, 49)
	c := New(Config{Shards: store.NumShards(), Matcher: m})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, b := range []squat.Brand{squat.NewBrand("paypal.com"), squat.NewBrand("facebook.com")} {
		for _, cand := range squat.NewGenerator().Generate(b) {
			if _, known := store.Lookup(cand.Domain); !known {
				if _, ok := m.Match(cand.Domain); ok {
					fresh = append(fresh, cand.Domain)
				}
			}
		}
	}
	if len(fresh) < 50 {
		t.Fatalf("only %d fresh squatting names to register", len(fresh))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, d := range fresh {
			c.Apply(d, [4]byte{10, 0, 0, byte(i)})
		}
	}()
	bad := make(chan Verdict, 1)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				for i := r; i < len(fresh); i += 2 {
					if v := c.Lookup(fresh[i]); v.Known && !v.Matched {
						select {
						case bad <- v:
						default:
						}
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case v := <-bad:
		t.Fatalf("a known squat answered unmatched: %+v", v)
	default:
	}
	if got, want := c.Candidates(), serialCandidates(store, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep after concurrent Applys diverged: %d vs %d candidates", len(got), len(want))
	}
}

// TestWarmRetainsOnlyCandidates pins what a warmed coordinator costs: its
// shards hold an 8-byte hit per candidate keyed by the store's own copy of
// the name, never a verdict per record nor a second copy of a name, so the
// heap it retains beyond the store and the matcher stays under 48 B per
// candidate. Half this store's records are candidates, as on serve-mixed;
// a map entry per record holding a squat.Candidate costs ~129 B a record,
// and one per candidate keyed by the scan's copy of the name ~150 B a
// candidate.
func TestWarmRetainsOnlyCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20K-record store")
	}
	var brands []squat.Brand
	for _, d := range []string{"paypal.com", "facebook.com", "google.com", "amazon.com", "apple.com",
		"netflix.com", "microsoft.com", "ebay.com", "twitter.com", "instagram.com"} {
		brands = append(brands, squat.NewBrand(d))
	}
	var planted []string
	for _, b := range brands {
		for _, cand := range squat.NewGenerator().Generate(b) {
			planted = append(planted, cand.Domain)
		}
	}
	store := dnsx.GenerateSnapshot(dnsx.SnapshotSpec{Planted: planted, NoiseRecords: 10_000, Seed: 50})
	m := squat.NewMatcher(brands)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	c := New(Config{Shards: store.NumShards(), Matcher: m, Metrics: obs.NewRegistry()})
	// The scan's result, and its copy of every name, die after Warm, as in
	// squatd.
	if err := c.Warm(store, serialCandidates(store, m)); err != nil {
		t.Fatal(err)
	}
	retained := heap() - before
	n := len(c.Candidates())
	const perCand = 48
	t.Logf("warm retained %d B for %d records, %d candidates (%.1f B per candidate, limit %d)",
		retained, store.Len(), n, float64(retained)/float64(n), perCand)
	if n < store.Len()/3 {
		t.Fatalf("fixture has %d candidates of %d records; want a third or more", n, store.Len())
	}
	if retained > int64(perCand*n) {
		t.Fatalf("warmed coordinator retains %d B for %d candidates of %d records; want <= %d B",
			retained, n, store.Len(), perCand*n)
	}
	runtime.KeepAlive(store)
}
