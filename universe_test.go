package squatphi

import (
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
