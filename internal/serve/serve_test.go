package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"squatphi/internal/core"
	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/squat"
)

// Candidates sweeps all shards and returns the warmed squatting
// candidates sorted by domain — the same order core.ScanStore and
// deltascan.Engine.Scan produce, so a sweep can be compared byte-for-byte
// against a cold scan of the store.
func (c *Coordinator) Candidates() []squat.Candidate {
	var out []squat.Candidate
	for _, sh := range c.shards {
		sh.mu.RLock()
		for d, h := range sh.cands {
			out = append(out, c.candidate(d, h))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// testWorld builds the standard fixture: a snapshot store with planted
// squatting candidates, the matcher that finds them, and the cold-scan
// reference verdict list.
func testWorld(t *testing.T, noise, shards int, seed uint64) (*dnsx.Store, *squat.Matcher, []squat.Candidate) {
	t.Helper()
	brands := []squat.Brand{squat.NewBrand("paypal.com"), squat.NewBrand("facebook.com")}
	gen := squat.NewGenerator()
	var planted []string
	for _, b := range brands {
		for i, c := range gen.Generate(b) {
			if i%4 == 0 {
				planted = append(planted, c.Domain)
			}
		}
	}
	store := dnsx.GenerateSnapshot(dnsx.SnapshotSpec{
		Planted: planted, NoiseRecords: noise, Seed: seed, Shards: shards,
	})
	m := squat.NewMatcher(brands)
	return store, m, core.ScanStore(store, m, 1, nil)
}

func TestWarmLookup(t *testing.T) {
	store, m, cands := testWorld(t, 3000, 8, 41)
	if len(cands) == 0 {
		t.Fatal("fixture planted no candidates")
	}
	reg := obs.NewRegistry()
	c := New(Config{Shards: store.NumShards(), Matcher: m, Metrics: reg})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}

	// Every planted candidate answers Known+Matched from its shard.
	for _, cand := range cands {
		v := c.Lookup(cand.Domain)
		if !v.Known || !v.Matched {
			t.Fatalf("Lookup(%s) = %+v, want known matched", cand.Domain, v)
		}
		if want := dnsx.ShardIndex(dnsx.Normalize(cand.Domain), len(c.shards)); v.Shard != want {
			t.Fatalf("Lookup(%s) routed to shard %d, want %d", cand.Domain, v.Shard, want)
		}
		if v.Type != cand.Type.String() || v.Brand != cand.Brand.Name {
			t.Fatalf("Lookup(%s) = %+v, want type %s brand %s", cand.Domain, v, cand.Type, cand.Brand.Name)
		}
	}

	// A noise record: known, not matched.
	var noiseDom string
	store.Range(func(r dnsx.Record) bool {
		if _, ok := m.Match(r.Domain); !ok {
			noiseDom = r.Domain
			return false
		}
		return true
	})
	if v := c.Lookup(noiseDom); !v.Known || v.Matched {
		t.Fatalf("Lookup(noise %s) = %+v, want known unmatched", noiseDom, v)
	}

	// An absent domain: unknown, unmatched.
	if v := c.Lookup("definitely-not-in-snapshot.example"); v.Known || v.Matched {
		t.Fatalf("Lookup(absent) = %+v", v)
	}

	// Lookup normalises like the store: case and trailing dot.
	d := cands[0].Domain
	if v := c.Lookup("  " + d); v.Known { // leading junk is NOT trimmed — only case/dot
		t.Fatalf("Lookup with junk prefix unexpectedly known: %+v", v)
	}
	up := []byte(d)
	for i, ch := range up {
		if ch >= 'a' && ch <= 'z' {
			up[i] = ch - 'a' + 'A'
		}
	}
	if v := c.Lookup(string(up) + "."); !v.Known || !v.Matched {
		t.Fatalf("Lookup(%q) not normalised: %+v", string(up)+".", v)
	}

	// The warmed sweep equals the engine's scan it was warmed from, and
	// both equal the serial reference byte-for-byte.
	if got := c.Candidates(); !reflect.DeepEqual(got, cands) {
		t.Fatalf("Candidates() diverged from the warm input: %d vs %d", len(got), len(cands))
	}
	if want := serialCandidates(store, m); !reflect.DeepEqual(cands, want) {
		t.Fatalf("engine scan diverged from the serial reference: %d vs %d", len(cands), len(want))
	}
}

func TestWarmShardMismatch(t *testing.T) {
	store, m, cands := testWorld(t, 200, 8, 42)
	c := New(Config{Shards: 4, Matcher: m})
	if err := c.Warm(store, cands); err == nil {
		t.Fatal("Warm accepted a store with a different shard partition")
	}
	// A candidate the store does not hold, or of a brand the matcher does
	// not have, is not the store's scan result.
	c = New(Config{Shards: store.NumShards(), Matcher: m})
	stray := cands[0]
	stray.Domain = "paypa1-not-in-store.com"
	if err := c.Warm(store, []squat.Candidate{stray}); err == nil {
		t.Fatal("Warm accepted a candidate the store does not hold")
	}
	stray = cands[0]
	stray.Brand = squat.NewBrand("example.org")
	if err := c.Warm(store, []squat.Candidate{stray}); err == nil {
		t.Fatal("Warm accepted a candidate of a brand the matcher does not have")
	}
}

func TestApplyUpdatesHotState(t *testing.T) {
	store, m, cands := testWorld(t, 500, 8, 43)
	c := New(Config{Shards: store.NumShards(), Matcher: m})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}

	// A fresh squatting registration streams in and is immediately known.
	v := c.Apply("paypa1.com", [4]byte{10, 0, 0, 1})
	if !v.Known || !v.Matched {
		t.Fatalf("Apply = %+v, want known matched", v)
	}
	if got := c.Lookup("paypa1.com"); !got.Known || !got.Matched {
		t.Fatalf("Lookup after Apply = %+v", got)
	}
	// The store (source of truth) absorbed it too.
	if _, ok := store.Lookup("paypa1.com"); !ok {
		t.Fatal("Apply did not reach the store")
	}
	// The sweep now equals a serial scan of the mutated store.
	if got, want := c.Candidates(), serialCandidates(store, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("Candidates() after Apply diverged from the serial reference: %d vs %d", len(got), len(want))
	}
}

// TestLookupBeforeWarm pins what a coordinator answers before Warm gives
// its shards a store: every name unknown at epoch 0 with Matched from the
// matcher, from Lookup, LookupBatch and Apply alike, and Apply writes
// nothing.
func TestLookupBeforeWarm(t *testing.T) {
	store, m, cands := testWorld(t, 300, 8, 44)
	c := New(Config{Shards: store.NumShards(), Matcher: m})
	domains := []string{cands[0].Domain, "paypa1-fresh.com", "definitely-not-in-snapshot.example"}
	check := func(how string, v Verdict) {
		t.Helper()
		if _, want := m.Match(v.Domain); v.Known || v.Matched != want || v.Epoch != 0 {
			t.Fatalf("%s before Warm = %+v, want unknown, epoch 0, matched=%v", how, v, want)
		}
	}
	for _, d := range domains {
		check("Lookup", c.Lookup(d))
		check("Apply", c.Apply(d, [4]byte{10, 0, 0, 1}))
	}
	for _, v := range c.LookupBatch(domains) {
		check("LookupBatch", v)
	}
	if got := c.Candidates(); len(got) != 0 {
		t.Fatalf("Apply before Warm wrote %d candidates", len(got))
	}
}

func TestHTTPEndpoints(t *testing.T) {
	store, m, cands := testWorld(t, 800, 8, 45)
	reg := obs.NewRegistry()
	c := New(Config{Shards: store.NumShards(), Matcher: m, Metrics: reg})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	for _, rt := range c.Routes() {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	t.Run("verdict", func(t *testing.T) {
		var v Verdict
		getJSON(t, srv.URL+"/verdict?domain="+cands[0].Domain, &v)
		if !v.Known || !v.Matched {
			t.Fatalf("GET /verdict = %+v", v)
		}
		resp, err := http.Get(srv.URL + "/verdict")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("missing domain: status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("bulk", func(t *testing.T) {
		domains := []string{cands[0].Domain, "nope.example", cands[1].Domain}
		body, _ := json.Marshal(domains)
		resp, err := http.Post(srv.URL+"/verdicts", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []Verdict
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 || !out[0].Matched || out[1].Matched || !out[2].Matched {
			t.Fatalf("POST /verdicts = %+v", out)
		}
	})

	t.Run("update", func(t *testing.T) {
		body, _ := json.Marshal([]UpdateRecord{{Domain: "faceb00k.com", IP: "10.1.2.3"}})
		resp, err := http.Post(srv.URL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []Verdict
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || !out[0].Known {
			t.Fatalf("POST /update = %+v", out)
		}
		var v Verdict
		getJSON(t, srv.URL+"/verdict?domain=faceb00k.com", &v)
		if !v.Known {
			t.Fatalf("verdict after update = %+v", v)
		}

		body, _ = json.Marshal([]UpdateRecord{{Domain: "x.com", IP: "999.1.2.3"}})
		resp2, err := http.Post(srv.URL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad IP: status %d, want 400", resp2.StatusCode)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
		}
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if want := map[string]any{"shards": float64(8)}; !reflect.DeepEqual(h, want) {
			t.Fatalf("healthz body = %v, want %v", h, want)
		}
	})
}

// TestConcurrentLookupDuringReload hammers lookups and updates while
// Warm swaps every shard — the reload/handoff path. The updates only
// re-resolve names the store already holds, so each reload's sweep is still
// a scan of the store it swaps in. Run under -race this is the data-race
// gate for the serving layer.
func TestConcurrentLookupDuringReload(t *testing.T) {
	store, m, cands := testWorld(t, 2000, 8, 46)
	c := New(Config{Shards: store.NumShards(), Matcher: m})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}
	domains := store.Domains()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Lookup(domains[i%len(domains)])
				if i%7 == 0 {
					c.Apply(domains[i%len(domains)], [4]byte{8, 8, byte(w), byte(i)})
				}
				i += 13
			}
		}(w)
	}
	for r := 0; r < 5; r++ {
		if err := c.Warm(store, c.Candidates()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestParseIPv4(t *testing.T) {
	good := map[string][4]byte{
		"0.0.0.0":         {0, 0, 0, 0},
		"10.1.2.3":        {10, 1, 2, 3},
		"255.255.255.255": {255, 255, 255, 255},
	}
	for s, want := range good {
		got, err := parseIPv4(s)
		if err != nil || got != want {
			t.Errorf("parseIPv4(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", ".1.2.3", "1.2.3."} {
		if _, err := parseIPv4(s); err == nil {
			t.Errorf("parseIPv4(%q) accepted", s)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
