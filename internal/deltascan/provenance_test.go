package deltascan

import (
	"bytes"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
)

// TestProvenanceEpochs pins the cache-provenance semantics: a verdict is
// "fresh" in the epoch whose scan ran the matcher for it and "cached"
// afterwards, across both reuse mechanisms (verdict-cache hit and
// wholesale shard skip).
func TestProvenanceEpochs(t *testing.T) {
	rng := simrand.New(11)
	model := seedModel(rng, 400)
	m := testMatcher()
	e := NewEngine()

	if _, ok := e.Provenance("paypa1.com"); ok {
		t.Fatal("provenance before any scan")
	}

	e.Scan(buildStore(model, rng.Split("b1")), m, 4)
	pr, ok := e.Provenance("paypa1.com")
	if !ok {
		t.Fatal("no provenance for scanned squat domain")
	}
	if pr.Epoch != 1 || pr.ComputedEpoch != 1 || pr.Cached || !pr.Matched {
		t.Fatalf("epoch 1 provenance = %+v, want fresh matched at epoch 1", pr)
	}
	if pr, ok = e.Provenance("this-was-never-scanned.com"); ok {
		t.Fatalf("provenance for unseen domain: %+v", pr)
	}

	// Epoch 2, unchanged store: every shard skips, the verdict must now
	// read as cached with its compute epoch intact.
	e.Scan(buildStore(model, rng.Split("b2")), m, 4)
	if st := e.LastStats(); st.ShardsRescanned != 0 {
		t.Fatalf("unchanged store rescanned %d shards", st.ShardsRescanned)
	}
	pr, _ = e.Provenance("paypa1.com")
	if pr.Epoch != 2 || pr.ComputedEpoch != 1 || !pr.Cached || !pr.Matched {
		t.Fatalf("epoch 2 provenance = %+v, want cached from epoch 1", pr)
	}

	// Epoch 3, add one record: its shard rescans, existing verdicts hit
	// the cache (ComputedEpoch stays 1), the new domain is fresh at 3.
	model["paypal-fresh3.com"] = [4]byte{1, 2, 3, 4}
	e.Scan(buildStore(model, rng.Split("b3")), m, 4)
	pr, _ = e.Provenance("paypa1.com")
	if pr.Epoch != 3 || pr.ComputedEpoch != 1 || !pr.Cached {
		t.Fatalf("epoch 3 old-domain provenance = %+v", pr)
	}
	pr, ok = e.Provenance("paypal-fresh3.com")
	if !ok || pr.ComputedEpoch != 3 || pr.Cached || !pr.Matched {
		t.Fatalf("epoch 3 new-domain provenance = %+v (ok=%t)", pr, ok)
	}

	// Non-matching domains carry provenance too — "the matcher saw it and
	// said no" is evidence.
	var noise string
	for d := range model {
		if _, matched := m.Match(d); !matched {
			noise = d
			break
		}
	}
	if pr, ok = e.Provenance(noise); !ok || pr.Matched {
		t.Fatalf("noise-domain provenance = %+v (ok=%t)", pr, ok)
	}
}

// TestProvenanceSurvivesSaveLoad checks that epoch stamps round-trip
// through the spill format.
func TestProvenanceSurvivesSaveLoad(t *testing.T) {
	rng := simrand.New(13)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	e.Scan(buildStore(model, rng.Split("b1")), m, 2)
	model["paypal-late.com"] = [4]byte{5, 5, 5, 5}
	e.Scan(buildStore(model, rng.Split("b2")), m, 2)

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, dom := range []string{"paypa1.com", "paypal-late.com"} {
		want, ok1 := e.Provenance(dom)
		got, ok2 := loaded.Provenance(dom)
		if !ok1 || !ok2 || want != got {
			t.Errorf("%s: provenance %+v (ok=%t) != loaded %+v (ok=%t)", dom, want, ok1, got, ok2)
		}
	}
}

// provenanceAllShards is the reference Provenance answers against: the
// search of every shard's cache that the indexed lookup replaced.
func provenanceAllShards(e *Engine, domain string) (Provenance, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := dnsx.Normalize(domain)
	for _, sh := range e.shards {
		if v, ok := sh.cache[d]; ok {
			return Provenance{Epoch: e.epoch, ComputedEpoch: v.epoch, Cached: v.epoch < e.epoch, Matched: v.ok}, true
		}
	}
	return Provenance{Epoch: e.epoch}, false
}

// TestProvenanceIndexesOneShard: Provenance probes only the shard the
// store files a domain under, and must answer exactly what a search of
// all shards answers — for every domain of a multi-epoch store, for
// domains that left it (still cached, or pruned with their shard), for
// names never seen and for un-normalised spellings, on the live engine
// and on its Save/Load image.
func TestProvenanceIndexesOneShard(t *testing.T) {
	rng := simrand.New(17)
	model := seedModel(rng, 9000)
	m := testMatcher()
	e := NewEngine()
	e.Scan(buildStore(model, rng.Split("b1")), m, 4)
	queries := sortedDomains(model)

	// Epoch 2 keeps 150 names, so most caches are pruned; epoch 3 drops a
	// few more from shards too small to prune and adds fresh ones.
	for _, d := range queries[150:] {
		delete(model, d)
	}
	e.Scan(buildStore(model, rng.Split("b2")), m, 4)
	for _, d := range queries[:20] {
		delete(model, d)
	}
	for i := 0; i < 40; i++ {
		model[rng.Letters(9)+".com"] = [4]byte{3, 3, 3, byte(i)}
	}
	model["paypal-epoch3.com"] = [4]byte{3, 3, 3, 3}
	e.Scan(buildStore(model, rng.Split("b3")), m, 4)
	queries = append(queries, sortedDomains(model)...)
	queries = append(queries, "never-seen.example", "", ".", "PayPal-Epoch3.COM.", "paypal-epoch3.com..")

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found, gone := 0, 0
	for name, eng := range map[string]*Engine{"live": e, "loaded": loaded} {
		for _, d := range queries {
			want, wantOK := provenanceAllShards(eng, d)
			got, ok := eng.Provenance(d)
			if got != want || ok != wantOK {
				t.Fatalf("%s engine, %q: Provenance = %+v, %t; all-shard search = %+v, %t", name, d, got, ok, want, wantOK)
			}
			if ok {
				found++
			} else {
				gone++
			}
		}
	}
	if found == 0 || gone == 0 {
		t.Fatalf("test premise: %d queries found, %d not", found, gone)
	}
	if _, ok := NewEngine().Provenance("paypa1.com"); ok {
		t.Fatal("provenance from an engine with no shards")
	}
}
