package squatphi

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"squatphi/internal/brands"
	"squatphi/internal/confusables"
	"squatphi/internal/domlm"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// universeFingerprint is Matcher.Fingerprint() of the paper's brand
// universe as the three-map matcher computed it (commit 5836c0f). The
// benchmark's env block and every deltascan spill carry it: an index change
// that moves it invalidates verdict caches it has no reason to.
const universeFingerprint = 0x6f99800d3eba1deb

// TestUniverseIndex holds the matcher's one label index to the real brand
// universe from outside (internal/brands imports internal/squat, so this
// cannot live beside the gate's own tests): the fingerprint is the parent's,
// and every key the index is built from — each brand's name, its skeleton,
// and every bits/typo label the Generator enumerates for it — is answered
// by the index, under a TLD no brand owns. A key the gate refused would
// fall through to the combo rule or to a miss; squat's TestGateAtScale
// checks the same thing key by key, and the false-positive rate, at this
// size.
func TestUniverseIndex(t *testing.T) {
	sb := brands.Select(brands.DefaultConfig()).SquatBrands()
	m := squat.NewMatcher(sb)
	if got := m.Fingerprint(); got != universeFingerprint {
		t.Errorf("Fingerprint() = %#x, want %#x", got, uint64(universeFingerprint))
	}
	gen := squat.NewGenerator()
	var s squat.Scratch
	keys := 0
	check := func(label string) {
		keys++
		c, ok := m.MatchString(label+".index-test", &s)
		if !ok || c.Type == squat.Combo || c.Type == squat.Generated {
			t.Fatalf("index key %q: verdict (%+v, %v), want a name, skeleton or edit hit", label, c, ok)
		}
	}
	for _, b := range sb {
		check(b.Name)
		check(confusables.Skeleton(b.Name))
		for _, c := range gen.BitFlips(b) {
			label, _ := squat.SplitETLD(c.Domain)
			check(label)
		}
		for _, c := range gen.Typos(b) {
			label, _ := squat.SplitETLD(c.Domain)
			check(label)
		}
	}
	if keys < 400_000 {
		t.Errorf("checked %d keys for %d brands, want the paper-scale universe (≈489K distinct)", keys, len(sb))
	}
}

// TestUniverseGenerator pins the Generator's output over the real brand
// universe from outside: the count of candidates and a SHA-256 over one
// "domain|type|brand domain" line per candidate, in order, for Generate
// and for each of the three edit families it builds from an enumerator.
// The digests were recorded from the generator that still built every
// variant as a string and deduplicated through maps (commit 9528820).
// webworld's squats and the benchmark's planted inputs are drawn from
// these sequences, so a reordering changes both.
func TestUniverseGenerator(t *testing.T) {
	sb := brands.Select(brands.DefaultConfig()).SquatBrands()
	g := squat.NewGenerator()
	for _, tc := range []struct {
		name   string
		gen    func(squat.Brand) []squat.Candidate
		n      int
		digest string
	}{
		{"Generate", g.Generate, 656311, "361d8195c1d6fa9ae6fc63b404d027743d3d4071d8a6488d931bf883b8fa5989"},
		{"Typos", g.Typos, 493083, "329f68f3640ff07a508199c871de816ae83c3b9bf1112093ece453d17a4faa38"},
		{"BitFlips", g.BitFlips, 29299, "7e730fd4947c7cada18f453daae75b496644c2cf9885ae98d29858f652c62643"},
		{"Homographs", g.Homographs, 59917, "59a0c243f5b796a6f7acd9b6a832c23db3bad517321ee2b4d75f6a72e060c337"},
	} {
		h := sha256.New()
		n := 0
		for _, b := range sb {
			for _, c := range tc.gen(b) {
				n++
				fmt.Fprintf(h, "%s|%d|%s\n", c.Domain, c.Type, c.Brand.Domain())
			}
		}
		if digest := fmt.Sprintf("%x", h.Sum(nil)); n != tc.n || digest != tc.digest {
			t.Errorf("%s: %d candidates, digest %s; want %d, %s", tc.name, n, digest, tc.n, tc.digest)
		}
	}
}

// universeMatcherHeapBudget bounds the live heap one matcher over the
// paper's brand universe retains. The label index dominates it: the
// matcher retains 23.5 MB with the index as an open-addressed table over
// one key arena, 63.6 MB with the map[string]fastEntry that table replaced
// (commit f3afa8f). Every process that
// holds the universe (squatd, squatmond, a scan) pays it for its lifetime,
// and its heap goal is twice its live heap.
const universeMatcherHeapBudget = 28e6

// TestUniverseMatcherHeap measures the heap NewMatcher retains over the
// real universe: live heap after two collections, before and after the
// build. make bench-check runs it beside the allocation budgets.
func TestUniverseMatcherHeap(t *testing.T) {
	sb := brands.Select(brands.DefaultConfig()).SquatBrands()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	m := squat.NewMatcher(sb)
	retained := float64(live()) - float64(before)
	runtime.KeepAlive(m)
	t.Logf("NewMatcher over %d brands retains %.1f MB", len(sb), retained/1e6)
	if retained > universeMatcherHeapBudget {
		t.Errorf("NewMatcher retains %.1f MB of heap, want ≤ %.0f MB", retained/1e6, universeMatcherHeapBudget/1e6)
	}
}

// The allocation budget of one NewMatcher over the paper's brand universe.
// A build writes every bits and typo label of every brand (~490K distinct)
// straight from a reused buffer into the label index, so what it allocates
// is the index's own arrays, the combo automaton and the gate: 888 objects
// and 38.5 MB, with the automaton's 1 KB rows allocated once at its state
// count (grown by append they made it 929 objects and 50.1 MB). The
// string generator it replaced allocated 1.09M objects and 224 MB (commit
// 9528820); a string per label coming back fails the count by orders of
// magnitude, and counts do not drift the way time does.
const (
	newMatcherAllocBudget = 2000
	newMatcherByteBudget  = 52e6
)

// TestNewMatcherAllocBudget holds one universe build to its allocation
// budget. make bench-check runs it.
func TestNewMatcherAllocBudget(t *testing.T) {
	sb := brands.Select(brands.DefaultConfig()).SquatBrands()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.KeepAlive(squat.NewMatcher(sb))
	runtime.ReadMemStats(&after)
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("NewMatcher over %d brands: %d allocations, %.1f MB", len(sb), objects, float64(bytes)/1e6)
	if objects > newMatcherAllocBudget || float64(bytes) > newMatcherByteBudget {
		t.Errorf("NewMatcher allocated %d objects and %.1f MB, want ≤ %d and ≤ %.0f MB", objects, float64(bytes)/1e6, newMatcherAllocBudget, newMatcherByteBudget/1e6)
	}
}

// TestMatchMissUniverseZeroAlloc is BenchmarkMatchMissUniverse as a plain
// test: the universe matcher classifies every record of the noise arena,
// in every run, without one allocation. make bench-check runs it.
func TestMatchMissUniverseZeroAlloc(t *testing.T) {
	m, arena, ends := missArena()
	var s squat.Scratch
	if n := testing.AllocsPerRun(2, func() {
		lo := 0
		for _, hi := range ends {
			m.MatchBytes(arena[lo:hi:hi], &s)
			lo = hi
		}
	}); n != 0 {
		t.Errorf("MatchBytes allocated %.1f times per run over %d arena records, want 0", n, len(ends))
	}
}

// universeModelFingerprint is Model.Fingerprint() of the default model over
// the paper's brand universe (commit 1803f1b). The benchmark's env block
// carries it and the matcher folds it into its own: the scoring table is
// derived state, so no change to how scores are computed may move it.
const universeModelFingerprint = 0x509bcf71f529e5e4

// TestUniverseModel pins the default model from outside: its fingerprint,
// and the first 1,000 labels SampleLabel draws from a fixed seed, recorded
// from the commit that still kept the top order's probabilities in a dense
// array (testdata/domlm_sample_labels.txt). The benchmark plants sampled
// labels, so a sampler off by one ulp changes its input digest.
func TestUniverseModel(t *testing.T) {
	m := domlm.Train(brands.Select(brands.DefaultConfig()).Names(), domlm.DefaultConfig())
	if got := m.Fingerprint(); got != universeModelFingerprint {
		t.Errorf("Fingerprint() = %#x, want %#x", got, uint64(universeModelFingerprint))
	}
	b, err := os.ReadFile("testdata/domlm_sample_labels.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(b))
	if len(want) != 1000 {
		t.Fatalf("testdata/domlm_sample_labels.txt holds %d labels, want 1000", len(want))
	}
	r := simrand.New(1).Split("sample-pin")
	for i, w := range want {
		if got := m.SampleLabel(r); got != w {
			t.Fatalf("sample %d = %q, recorded %q", i, got, w)
		}
	}
}
