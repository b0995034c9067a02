package squat

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"testing"

	"squatphi/internal/simrand"
)

// syntheticUniverse is a matcher over 850 synthetic brands, about half a
// million index keys: the size scan-zone runs the index at. internal/brands
// imports this package, so the names are synthetic here; universe_test.go
// in the root package holds the real universe from outside. Built once and
// shared, since a build is most of a second (and several under -race).
var syntheticUniverse = sync.OnceValue(func() *Matcher {
	r := simrand.New(7).Split("gate")
	brands := make([]Brand, 850)
	for i := range brands {
		brands[i] = Brand{Name: r.Letters(3 + r.Intn(10)), TLD: "com"}
	}
	return NewMatcher(brands)
})

// indexGet reads label from x the way probe does, without the gate.
func indexGet(x *labelIndex, label []byte) (fastEntry, bool) {
	if s := x.slots[x.find(label, labelHash(label))]; s != 0 {
		return x.entries[s-1], true
	}
	return noEntry, false
}

// indexDigest is the SHA-256 of the index's contents, one line per key in
// key order: the key, then the entry's name, skel, edit and edit type.
func indexDigest(x *labelIndex) (string, int) {
	keys := make([]string, len(x.entries))
	for i := range keys {
		keys[i] = string(x.key(uint32(i)))
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		e, _ := indexGet(x, []byte(k))
		fmt.Fprintf(h, "%q %d %d %d %d\n", k, e.name, e.skel, e.edit, int(e.editType))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), len(keys)
}

// TestLabelIndexDigest pins the index's contents across its change of
// representation: the digests were recorded from the map[string]fastEntry
// the open-addressed table replaced, over the synthetic universe and over
// collidingBrands, whose labels exercise every overwrite rule of addEdit.
func TestLabelIndexDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      *Matcher
		keys   int
		digest string
	}{
		{"synthetic-850", syntheticUniverse(), 488779, "66b075b411842b01d93a2215994687353dca78ef1264560c01db80069f24dfff"},
		{"colliding", NewMatcher(collidingBrands), 3720, "8996aeb5d1e80246d6373f6b67d09f08a22c737bbb884c848cfd73047de9ea43"},
	} {
		digest, keys := indexDigest(tc.m.labels)
		if keys != tc.keys || digest != tc.digest {
			t.Errorf("%s: %d keys, digest %s; want %d keys, %s", tc.name, keys, digest, tc.keys, tc.digest)
		}
	}
}

// TestLabelIndexVsMap drives the table and a plain map through the same
// random sequences of inserts, overwrites and reads. Keys are short strings
// over a four-letter alphabet (the empty key included), so sequences revisit
// keys often; tables start at the 8-slot minimum and grow through every size
// on the way, running each one up to its 3/4 load, so long collision chains
// and wrap-around probes occur at every size.
func TestLabelIndexVsMap(t *testing.T) {
	r := simrand.New(31).Split("labelindex")
	longest := 0
	for round := 0; round < 200; round++ {
		x := newLabelIndex(r.Intn(8), 0)
		ref := map[string]fastEntry{}
		key := func() string {
			b := make([]byte, r.Intn(6))
			for i := range b {
				b[i] = "abcd"[r.Intn(4)]
			}
			return string(b)
		}
		for op := 0; op < 1+r.Intn(400); op++ {
			k := key()
			if r.Intn(3) == 0 {
				e, ok := indexGet(x, []byte(k))
				if want, wantOK := ref[k]; ok != wantOK || (ok && e != want) || (!ok && e != noEntry) {
					t.Fatalf("round %d: get(%q) = (%+v, %v), reference (%+v, %v)", round, k, e, ok, want, wantOK)
				}
				continue
			}
			p := x.upsert([]byte(k))
			if want, ok := ref[k]; !ok && *p != noEntry || ok && *p != want {
				t.Fatalf("round %d: upsert(%q) found %+v, reference (%+v, %v)", round, k, *p, want, ok)
			}
			e := fastEntry{name: int32(r.Intn(5)) - 1, skel: int32(r.Intn(5)) - 1, edit: int32(r.Intn(5)) - 1, editType: int8(r.Intn(7))}
			*p, ref[k] = e, e
		}
		if len(x.entries) != len(ref) || len(x.offs) != len(x.entries)+1 {
			t.Fatalf("round %d: %d keys, %d offsets; reference holds %d", round, len(x.entries), len(x.offs), len(ref))
		}
		for k, want := range ref {
			if e, ok := indexGet(x, []byte(k)); !ok || e != want {
				t.Fatalf("round %d: get(%q) = (%+v, %v) after the sequence, want %+v", round, k, e, ok, want)
			}
		}
		if 4*len(x.entries) > 3*len(x.slots) {
			t.Fatalf("round %d: %d keys in %d slots, over the 3/4 load", round, len(x.entries), len(x.slots))
		}
		longest = max(longest, longestRun(x.slots))
	}
	if longest < 6 {
		t.Errorf("longest run of occupied slots %d: the sequences never built a long chain", longest)
	}
}

// longestRun is the longest run of occupied slots, wrapping around: a
// label that is not a key probes at most that many slots and one more.
func longestRun(slots []uint32) int {
	longest, run := 0, 0
	for i := 0; i < 2*len(slots); i++ {
		if slots[i%len(slots)] == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return min(longest, len(slots))
}

// TestLabelIndexProbeLength holds the table's geometry at universe size:
// the load stays near the half the sizing aims at, and no run of occupied
// slots is long, so a label from outside — which the gate lets through
// about once in a hundred — costs a bounded probe whatever it hashes to.
func TestLabelIndexProbeLength(t *testing.T) {
	x := syntheticUniverse().labels
	load := float64(len(x.entries)) / float64(len(x.slots))
	run := longestRun(x.slots)
	t.Logf("%d keys in %d slots (load %.3f); longest occupied run %d", len(x.entries), len(x.slots), load, run)
	if load > 0.52 {
		t.Errorf("load %.3f, want ≤ 0.52", load)
	}
	if run > 64 {
		t.Errorf("longest run of occupied slots is %d, want ≤ 64", run)
	}
}
