package deltascan

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// shardOf is the shard a domain lands in under the store's partitioning.
func shardOf(s *dnsx.Store, domain string) int {
	return dnsx.ShardIndex(dnsx.Normalize(domain), s.NumShards())
}

// fullScan is the serial reference the engine must reproduce byte for
// byte: match every record, sort by domain.
func fullScan(store *dnsx.Store, m *squat.Matcher) []squat.Candidate {
	var out []squat.Candidate
	store.Range(func(r dnsx.Record) bool {
		if c, ok := m.Match(r.Domain); ok {
			out = append(out, c)
		}
		return true
	})
	sortCandidates(out)
	return out
}

// sortCandidates sorts by domain — the engine's output order. Two records
// the matcher reports under one domain give equal candidates, so their
// order does not show.
func sortCandidates(cs []squat.Candidate) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Domain < cs[j].Domain })
}

func testMatcher() *squat.Matcher {
	return squat.NewMatcher([]squat.Brand{
		squat.NewBrand("paypal.com"),
		squat.NewBrand("facebook.com"),
		squat.NewBrand("google.com"),
	})
}

// buildStore populates a store from a model map in seeded-random insertion
// order, so equal models always produce equal stores (and checksums) even
// though insertion order varies run to run.
func buildStore(model map[string][4]byte, rng *simrand.RNG) *dnsx.Store {
	s := dnsx.NewStore()
	domains := make([]string, 0, len(model))
	for d := range model {
		domains = append(domains, d)
	}
	// Deterministic base order, then a seeded shuffle: checksum and scan
	// results must not care.
	sortStrings(domains)
	rng.Shuffle(len(domains), func(i, j int) { domains[i], domains[j] = domains[j], domains[i] })
	for _, d := range domains {
		s.Add(d, model[d])
	}
	return s
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// seedModel plants squats and noise.
func seedModel(rng *simrand.RNG, n int) map[string][4]byte {
	model := make(map[string][4]byte, n)
	squats := []string{
		"paypal-login.com", "paypa1.com", "xn--pypal-4ve.com", "paypal.net",
		"faceb00k.com", "facebook-security.com", "gooogle.com", "google.org",
	}
	ip := func() [4]byte {
		return [4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	for _, d := range squats {
		model[d] = ip()
	}
	for len(model) < n {
		model[rng.Letters(10)+".com"] = ip()
	}
	return model
}

func TestScanMatchesFullScanColdAndWarm(t *testing.T) {
	rng := simrand.New(42)
	model := seedModel(rng, 500)
	m := testMatcher()
	e := NewEngine()

	for epoch := 0; epoch < 5; epoch++ {
		store := buildStore(model, rng.Split("build"))
		want := fullScan(store, m)
		got := e.Scan(store, m, 1+epoch%3*3) // workers 1, 4, 7, 1, 4
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: incremental scan diverged: %d vs %d candidates", epoch, len(got), len(want))
		}
		// Mutate ~2% of the model for the next epoch.
		for i := 0; i < 5; i++ {
			model[rng.Letters(10)+".com"] = [4]byte{1, 2, 3, byte(i)}
		}
		model["paypal-epoch.com"] = [4]byte{9, 9, 9, byte(epoch)}
	}
}

func TestUnchangedEpochSkipsEveryShard(t *testing.T) {
	rng := simrand.New(7)
	model := seedModel(rng, 400)
	m := testMatcher()
	e := NewEngine()

	s1 := buildStore(model, rng.Split("a"))
	first := e.Scan(s1, m, 4)
	if st := e.LastStats(); !st.FullScan || st.ShardsSkipped != 0 {
		t.Fatalf("first scan stats = %+v, want full scan with no skips", st)
	}

	// Same content, different insertion order: every shard must be skipped
	// and the result slice identical.
	s2 := buildStore(model, rng.Split("b"))
	second := e.Scan(s2, m, 4)
	st := e.LastStats()
	if st.ShardsSkipped != s2.NumShards() || st.ShardsRescanned != 0 {
		t.Fatalf("identical epoch stats = %+v, want all %d shards skipped", st, s2.NumShards())
	}
	if st.RecordsWalked != 0 || st.CacheMisses != 0 {
		t.Fatalf("identical epoch walked %d records, missed %d", st.RecordsWalked, st.CacheMisses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("skipped-epoch scan diverged from first epoch")
	}
}

func TestSingleRecordChangeRescansOneShard(t *testing.T) {
	rng := simrand.New(9)
	model := seedModel(rng, 600)
	m := testMatcher()
	e := NewEngine()

	s := buildStore(model, rng.Split("a"))
	e.Scan(s, m, 2)

	s.Add("paypa1-fresh.com", [4]byte{8, 8, 8, 8})
	got := e.Scan(s, m, 2)
	st := e.LastStats()
	if st.ShardsRescanned != 1 || st.ShardsSkipped != s.NumShards()-1 {
		t.Fatalf("one-record change stats = %+v, want exactly one shard rescanned", st)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (only the new domain)", st.CacheMisses)
	}
	if !reflect.DeepEqual(got, fullScan(s, m)) {
		t.Fatal("one-record-change scan diverged from full scan")
	}
}

func TestIPOnlyChurnSkipsEveryShard(t *testing.T) {
	rng := simrand.New(11)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	first := e.Scan(buildStore(model, rng.Split("a")), m, 1)

	// Re-point every record: matching depends only on the name, so no
	// shard is rescanned and no record walked.
	for d := range model {
		ip := model[d]
		ip[3] ^= 0xff
		model[d] = ip
	}
	s2 := buildStore(model, rng.Split("b"))
	got := e.Scan(s2, m, 1)
	st := e.LastStats()
	if st.ShardsSkipped != s2.NumShards() || st.RecordsWalked != 0 || st.CandidatesReused != len(first) {
		t.Fatalf("IP churn stats = %+v, want every shard skipped and all %d candidates reused", st, len(first))
	}
	if !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("IP-churn scan diverged from full scan")
	}
}

// TestRepointPlusNewNameRescansOnce: on one store churned in place, a
// shard that gets both re-points and a new name is rescanned (once) and
// matches only the new name, every old record is carried, and the shards
// that only saw re-points are still skipped.
func TestRepointPlusNewNameRescansOnce(t *testing.T) {
	rng := simrand.New(12)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	s := buildStore(model, rng.Split("a"))
	e.Scan(s, m, 2)

	const fresh = "paypal-fresh.com"
	shard := shardOf(s, fresh)
	inShard := 0
	for _, d := range sortedDomains(model) {
		s.Add(d, [4]byte{7, 7, 7, byte(len(d))})
		if shardOf(s, d) == shard {
			inShard++
		}
	}
	s.Add(fresh, [4]byte{7, 7, 7, 7})
	got := e.Scan(s, m, 2)
	st := e.LastStats()
	if st.ShardsRescanned != 1 || st.RecordsWalked != 1 || st.CacheHits != inShard || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want one shard rescanned with %d hits and 1 miss", st, inShard)
	}
	if !reflect.DeepEqual(got, fullScan(s, m)) {
		t.Fatal("scan diverged from full scan")
	}
}

// TestNoCandidatesIsNil: like core.ScanStore, the engine answers nil, not
// an empty slice, when nothing matches — on the rebuild path, the
// no-change path and the incremental path, and when the last candidate
// leaves.
func TestNoCandidatesIsNil(t *testing.T) {
	rng := simrand.New(14)
	m := testMatcher()
	model := map[string][4]byte{}
	for len(model) < 200 {
		model[rng.Letters(10)+".com"] = [4]byte{1, 1, 1, 1}
	}
	e := NewEngine()
	check := func(when string) {
		t.Helper()
		if got := e.Scan(buildStore(model, rng.Split(when)), m, 2); got != nil {
			t.Fatalf("%s: got %d candidates (%v), want nil", when, len(got), got)
		}
	}
	check("cold")
	check("unchanged")
	model[rng.Letters(10)+".com"] = [4]byte{2, 2, 2, 2}
	check("one noise name added")
	model["paypa1.com"] = [4]byte{3, 3, 3, 3}
	if got := e.Scan(buildStore(model, rng.Split("squat")), m, 2); len(got) != 1 {
		t.Fatalf("planted squat: got %v", got)
	}
	delete(model, "paypa1.com")
	check("last candidate removed")
}

// TestCandidateKeepsItsWalkShard: the store shards "paypa1.com.." under
// the name it normalised once ("paypa1.com."), the matcher's candidate
// carries the name normalised twice ("paypa1.com"), and the two hash to
// different shards. The merge must drop and re-add that candidate by the
// shard it was walked in, the spill must carry the matcher's name, and
// Provenance must find the candidate under the name Scan returned it by,
// with the epoch that matched it — live and after Save/Load. The second
// run keeps "paypa1.com" in the store too: one domain from two records in
// two shards, which every scan reports twice, as fullScan does.
func TestCandidateKeepsItsWalkShard(t *testing.T) {
	t.Run("alone", func(t *testing.T) { candidateKeepsItsWalkShard(t, false) })
	t.Run("beside paypa1.com", func(t *testing.T) { candidateKeepsItsWalkShard(t, true) })
}

func candidateKeepsItsWalkShard(t *testing.T, both bool) {
	rng := simrand.New(15)
	m := testMatcher()
	model := seedModel(rng, 300)
	if !both {
		delete(model, "paypa1.com")
	}
	e := NewEngine()
	build := func(split string) *dnsx.Store {
		s := buildStore(model, rng.Split(split))
		s.Add("paypa1.com..", [4]byte{4, 4, 4, 4})
		return s
	}
	s1 := build("a")
	walkShard := shardOf(s1, "paypa1.com..")
	if walkShard == shardOf(s1, "paypa1.com") {
		t.Fatalf("test premise: both names land in shard %d", walkShard)
	}
	if got := e.Scan(s1, m, 2); !reflect.DeepEqual(got, fullScan(s1, m)) {
		t.Fatal("first scan diverged from full scan")
	}
	assertComputed := func(e *Engine, when string, epoch int) {
		t.Helper()
		if both {
			return // Provenance answers for one of the two records
		}
		pr, ok := e.Provenance("paypa1.com")
		if !ok || pr.ComputedEpoch != epoch || pr.Cached != (epoch < pr.Epoch) {
			t.Fatalf("%s: Provenance(paypa1.com) = %+v, %t; want computed at epoch %d", when, pr, ok, epoch)
		}
	}
	assertComputed(e, "first scan", 1)

	// A new name in the walk shard of the odd record, on a new store: the
	// shard is re-matched in full, so the merge has to drop the old
	// candidate exactly once, and the candidate is matched afresh.
	newInWalkShard := func() string {
		for {
			d := rng.Letters(10) + ".com"
			if _, dup := model[d]; !dup && shardOf(s1, d) == walkShard {
				return d
			}
		}
	}
	model[newInWalkShard()] = [4]byte{5, 5, 5, 5}
	s2 := build("b")
	if got := e.Scan(s2, m, 2); !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("incremental merge diverged from full scan")
	}
	if st := e.LastStats(); st.ShardsRescanned != 1 {
		t.Fatalf("stats = %+v, want one shard rescanned", st)
	}
	assertComputed(e, "re-matched shard", 2)

	// One more name in that shard, added in place: only the tail is
	// matched, and the candidate keeps the epoch that matched it.
	s2.Add(newInWalkShard(), [4]byte{6, 6, 6, 6})
	if got := e.Scan(s2, m, 2); !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("tail scan diverged from full scan")
	}
	if st := e.LastStats(); st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want one name matched", st)
	}
	assertComputed(e, "tail scan", 2)

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertComputed(loaded, "after Load", 2)
	// The first scan after Load binds every unchanged shard to the store;
	// a new name in the walk shard then costs one match, and the reloaded
	// candidate must still carry the matcher's name.
	if got := loaded.Scan(s2, m, 2); !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("reloaded engine diverged from full scan")
	}
	s2.Add(newInWalkShard(), [4]byte{7, 7, 7, 7})
	if got := loaded.Scan(s2, m, 2); !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("reloaded engine's tail scan diverged from full scan")
	}
	if st := loaded.LastStats(); st.FullScan || st.CacheMisses != 1 {
		t.Fatalf("reloaded stats = %+v, want an incremental scan with one miss", st)
	}
	assertComputed(loaded, "tail scan after Load", 2)
}

func TestMatcherChangeInvalidatesCache(t *testing.T) {
	rng := simrand.New(13)
	model := seedModel(rng, 200)
	e := NewEngine()
	reg := obs.NewRegistry()
	e.InstrumentMetrics(reg)

	m1 := testMatcher()
	s := buildStore(model, rng.Split("a"))
	e.Scan(s, m1, 2)

	// A different brand universe must force a full re-scan, not serve the
	// old matcher's verdicts.
	m2 := squat.NewMatcher([]squat.Brand{squat.NewBrand("citibank.com")})
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Fatal("distinct brand sets share a fingerprint")
	}
	got := e.Scan(s, m2, 2)
	st := e.LastStats()
	if !st.FullScan || !st.Invalidated {
		t.Fatalf("post-config-change stats = %+v, want an invalidated full scan", st)
	}
	if !reflect.DeepEqual(got, fullScan(s, m2)) {
		t.Fatal("post-invalidation scan diverged from full scan with the new matcher")
	}
	snap := reg.Snapshot()
	if snap.Counters["deltascan.invalidations"] != 1 {
		t.Errorf("deltascan.invalidations = %d, want 1", snap.Counters["deltascan.invalidations"])
	}
	if snap.Counters["deltascan.full_scans"] != 2 {
		t.Errorf("deltascan.full_scans = %d, want 2", snap.Counters["deltascan.full_scans"])
	}
}

func TestShardCountChangeDegradesToFullScan(t *testing.T) {
	rng := simrand.New(17)
	model := seedModel(rng, 200)
	m := testMatcher()
	e := NewEngine()
	e.Scan(buildStore(model, rng.Split("a")), m, 2)

	wide := dnsx.NewShardedStore(8)
	for d, ip := range model {
		wide.Add(d, ip)
	}
	got := e.Scan(wide, m, 2)
	if st := e.LastStats(); !st.FullScan || !st.Invalidated {
		t.Fatalf("shard-count change stats = %+v, want an invalidated full scan", st)
	}
	if !reflect.DeepEqual(got, fullScan(wide, m)) {
		t.Fatal("scan over re-sharded store diverged from full scan")
	}
}

func TestMetricsCounters(t *testing.T) {
	rng := simrand.New(19)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	reg := obs.NewRegistry()
	e.InstrumentMetrics(reg)

	s := buildStore(model, rng.Split("a"))
	e.Scan(s, m, 2)
	e.Scan(buildStore(model, rng.Split("b")), m, 2)

	snap := reg.Snapshot()
	if snap.Counters["deltascan.scans"] != 2 {
		t.Errorf("scans = %d, want 2", snap.Counters["deltascan.scans"])
	}
	if got := snap.Counters["deltascan.shards_skipped"]; got != int64(s.NumShards()) {
		t.Errorf("shards_skipped = %d, want %d", got, s.NumShards())
	}
	if got := snap.Gauges["deltascan.shard_skip_ratio"]; got != 1 {
		t.Errorf("shard_skip_ratio = %v, want 1", got)
	}
	if got := snap.Counters["deltascan.records_walked"]; got != int64(s.Len()) {
		t.Errorf("records_walked = %d, want %d (first scan only)", got, s.Len())
	}
	if snap.Histograms["deltascan.scan_ms"].Count != 2 {
		t.Errorf("scan_ms observations = %d, want 2", snap.Histograms["deltascan.scan_ms"].Count)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := simrand.New(29)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	e.Scan(buildStore(model, rng.Split("a")), m, 2)

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != e.Epoch() {
		t.Fatalf("loaded epoch = %d, want %d", loaded.Epoch(), e.Epoch())
	}

	// The loaded engine must behave exactly like the live one: an
	// identical epoch skips everything, a config change degrades.
	s2 := buildStore(model, rng.Split("b"))
	got := loaded.Scan(s2, m, 2)
	st := loaded.LastStats()
	if st.ShardsSkipped != s2.NumShards() || st.CacheMisses != 0 {
		t.Fatalf("loaded-engine warm scan stats = %+v, want all shards skipped", st)
	}
	if !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("loaded-engine scan diverged from full scan")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a spill"))); err == nil {
		t.Fatal("Load accepted raw garbage")
	}
}

// TestShrunkPopulationKeepsOnlyLiveCandidates: the state holds candidates
// only, and only the live store's — a shard re-matched in full forgets the
// candidates of names that left, so a population that shrank leaves no
// trace of the old one.
func TestShrunkPopulationKeepsOnlyLiveCandidates(t *testing.T) {
	rng := simrand.New(31)
	m := testMatcher()
	e := NewEngine()
	model := seedModel(rng, 9000)
	for i := 0; i < 300; i++ {
		model["paypal-"+rng.Letters(6)+".com"] = [4]byte{1, 1, 1, 1}
	}
	e.Scan(buildStore(model, rng.Split("a")), m, 2)

	small := map[string][4]byte{}
	for _, d := range sortedDomains(model)[:100] {
		small[d] = model[d]
	}
	s := buildStore(small, rng.Split("b"))
	want := fullScan(s, m)
	if got := e.Scan(s, m, 2); !reflect.DeepEqual(got, want) {
		t.Fatal("scan of the shrunk population diverged from full scan")
	}
	held := 0
	for _, sh := range e.shards {
		held += len(sh.cands)
	}
	if held != len(want) || len(e.out) != len(want) {
		t.Fatalf("state holds %d candidates, output %d, after the population shrank to %d", held, len(e.out), len(want))
	}
}

// TestConcurrentAddsAndScans: Store.Add writers race Scans of the same
// store (run under -race in make race-short). Writers that lose the race
// for a shard lock insert names below a mark a Scan already read, which
// only the checksum identity of the tail walk catches; every new name is
// squat-shaped, so one the engine missed would be a candidate missing
// from the final Scan, which must equal a full scan once the writers stop.
func TestConcurrentAddsAndScans(t *testing.T) {
	rng := simrand.New(37)
	m := testMatcher()
	s := dnsx.NewShardedStore(4)
	for d, ip := range seedModel(rng, 300) {
		s.Add(d, ip)
	}
	e := NewEngine()
	e.Scan(s, m, 2)

	adds := 3000
	if testing.Short() {
		adds = 1000
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := simrand.New(uint64(100 + w))
			for i := 0; i < adds; i++ {
				s.Add(fmt.Sprintf("paypal-%d-%s.com", w, r.Letters(6)), [4]byte{byte(w), 0, 0, byte(i)})
				if i%8 == 0 {
					s.Add("paypa1.com", [4]byte{byte(w), 1, 1, byte(i)}) // a re-point
				}
			}
		}(w)
	}
	scans := 0
	go func() {
		wg.Wait()
		done.Store(true)
	}()
	for !done.Load() {
		e.Scan(s, m, 2)
		scans++
	}
	got := e.Scan(s, m, 2)
	if want := fullScan(s, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d scans racing the writers: %d candidates, full scan %d", scans, len(got), len(want))
	}
}
