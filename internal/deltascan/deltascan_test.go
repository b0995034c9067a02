package deltascan

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// fullScan is the serial reference the engine must reproduce byte for
// byte: match every record, sort by domain. It mirrors core.ScanStore
// (not imported to keep the package dependency-light).
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

// sortCandidates sorts by domain (unique within a store) — the output
// order contract shared with core.ScanStore.
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

	s1 := buildStore(model, rng.Split("a"))
	e.Scan(s1, m, 2)

	model["paypa1-fresh.com"] = [4]byte{8, 8, 8, 8}
	s2 := buildStore(model, rng.Split("b"))
	got := e.Scan(s2, m, 2)
	st := e.LastStats()
	if st.ShardsRescanned != 1 || st.ShardsSkipped != s2.NumShards()-1 {
		t.Fatalf("one-record change stats = %+v, want exactly one shard rescanned", st)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (only the new domain)", st.CacheMisses)
	}
	if !reflect.DeepEqual(got, fullScan(s2, m)) {
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

// TestRepointPlusNewNameRescansOnce: a shard that gets both a re-point
// and a new name is rescanned (once), every old name is a cache hit, and
// the shards that only saw re-points are still skipped.
func TestRepointPlusNewNameRescansOnce(t *testing.T) {
	rng := simrand.New(12)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	s1 := buildStore(model, rng.Split("a"))
	e.Scan(s1, m, 2)

	const fresh = "paypal-fresh.com"
	shard := s1.ShardOf(fresh)
	inShard := 0
	for d := range model {
		ip := model[d]
		ip[0] ^= 0x0f
		model[d] = ip
		if s1.ShardOf(d) == shard {
			inShard++
		}
	}
	model[fresh] = [4]byte{7, 7, 7, 7}
	s2 := buildStore(model, rng.Split("b"))
	got := e.Scan(s2, m, 2)
	st := e.LastStats()
	if st.ShardsRescanned != 1 || st.RecordsWalked != inShard+1 || st.CacheHits != inShard || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want one shard rescanned with %d hits and 1 miss", st, inShard)
	}
	if !reflect.DeepEqual(got, fullScan(s2, m)) {
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
// shard it was walked in, and the spill must carry both names.
func TestCandidateKeepsItsWalkShard(t *testing.T) {
	rng := simrand.New(15)
	m := testMatcher()
	model := seedModel(rng, 300)
	delete(model, "paypa1.com")
	e := NewEngine()
	build := func(split string) *dnsx.Store {
		s := buildStore(model, rng.Split(split))
		s.Add("paypa1.com..", [4]byte{4, 4, 4, 4})
		return s
	}
	s1 := build("a")
	if a, b := s1.ShardOf("paypa1.com.."), s1.ShardOf("paypa1.com"); a == b {
		t.Fatalf("test premise: both names land in shard %d", a)
	}
	e.Scan(s1, m, 2)

	// A new name in the walk shard of the odd record: the linear merge has
	// to drop its old candidate exactly once.
	for {
		d := rng.Letters(10) + ".com"
		if s1.ShardOf(d) == s1.ShardOf("paypa1.com..") {
			model[d] = [4]byte{5, 5, 5, 5}
			break
		}
	}
	s2 := build("b")
	if got := e.Scan(s2, m, 2); !reflect.DeepEqual(got, fullScan(s2, m)) {
		t.Fatal("incremental merge diverged from full scan")
	}
	if st := e.LastStats(); st.ShardsRescanned != 1 {
		t.Fatalf("stats = %+v, want one shard rescanned", st)
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Another new name in that shard: the reloaded engine answers the odd
	// record from its cache, and must answer with the matcher's name.
	for {
		d := rng.Letters(10) + ".com"
		if _, dup := model[d]; !dup && s1.ShardOf(d) == s1.ShardOf("paypa1.com..") {
			model[d] = [4]byte{6, 6, 6, 6}
			break
		}
	}
	s3 := build("c")
	if got := loaded.Scan(s3, m, 2); !reflect.DeepEqual(got, fullScan(s3, m)) {
		t.Fatal("reloaded engine diverged from full scan")
	}
	if st := loaded.LastStats(); st.FullScan || st.CacheMisses != 1 {
		t.Fatalf("reloaded stats = %+v, want an incremental scan with one miss", st)
	}
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

func TestDiffMatchesGlobalDiff(t *testing.T) {
	rng := simrand.New(23)
	model := seedModel(rng, 400)
	oldS := buildStore(model, rng.Split("a"))

	model["brand-new.com"] = [4]byte{1, 1, 1, 1}
	delete(model, pickDomain(model, "brand-new.com"))
	for d := range model {
		ip := model[d]
		ip[0] ^= 1
		model[d] = ip
		break
	}
	newS := buildStore(model, rng.Split("b"))

	want := dnsx.Diff(oldS, newS)
	got, st := DiffWithStats(oldS, newS)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard diff = %+v, global diff = %+v", got, want)
	}
	if st.ShardsSkipped+st.ShardsCompared != newS.NumShards() {
		t.Fatalf("diff stats don't cover all shards: %+v", st)
	}
	if st.ShardsSkipped == 0 {
		t.Fatalf("diff skipped no shards on a 3-record delta: %+v", st)
	}

	// Mismatched shard counts fall back to the global diff.
	wide := dnsx.NewShardedStore(8)
	for d, ip := range model {
		wide.Add(d, ip)
	}
	if got := Diff(oldS, wide); !reflect.DeepEqual(got, dnsx.Diff(oldS, wide)) {
		t.Fatal("fallback diff diverged from dnsx.Diff")
	}
}

// pickDomain returns a deterministic non-excluded domain from the model.
func pickDomain(model map[string][4]byte, exclude string) string {
	best := ""
	for d := range model {
		if d != exclude && (best == "" || d < best) {
			best = d
		}
	}
	return best
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

func TestCachePruneDropsStaleEntries(t *testing.T) {
	rng := simrand.New(31)
	m := testMatcher()
	e := NewEngine()

	// Epoch 1: a large population confined to one shard's key space is
	// impractical to construct; instead shrink the whole model so every
	// shard's cache is dominated by stale entries, and verify pruning.
	model := seedModel(rng, 9000)
	e.Scan(buildStore(model, rng.Split("a")), m, 2)

	small := map[string][4]byte{}
	n := 0
	for d, ip := range model {
		small[d] = ip
		if n++; n >= 100 {
			break
		}
	}
	// Every shard lost names, so every shard rescans — pruning only runs
	// on rescanned shards.
	e.Scan(buildStore(small, rng.Split("b")), m, 2)

	entries := 0
	for _, sh := range e.shards {
		entries += len(sh.cache)
	}
	if entries >= 9000 {
		t.Fatalf("cache kept %d entries after the population shrank to 100", entries)
	}
}
