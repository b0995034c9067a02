package squatphi

import (
	"testing"

	"squatphi/internal/brands"
	"squatphi/internal/confusables"
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
