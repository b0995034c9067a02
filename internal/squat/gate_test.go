package squat

import (
	"testing"

	"squatphi/internal/dnsx"
)

// TestGateAtScale holds the gate to its contract at the size scan-zone runs
// it — 850 brands, about half a million index keys (internal/brands imports
// this package, so the names here are synthetic; universe_test.go in the
// root package holds the real universe to the same contract from outside).
// No index key is refused: a refused key would turn a squat into a miss.
// The filter fits L2. Under 3 % of noise labels get past it to the table,
// which pins the 16-bits-per-key sizing (measured: 0.7–0.8 %), so a resize
// shows up here and not as a slow scan.
func TestGateAtScale(t *testing.T) {
	m := syntheticUniverse()
	x := m.labels
	if len(x.entries) < 400_000 {
		t.Fatalf("index holds %d keys, want paper scale (≈489K)", len(x.entries))
	}
	for i := 0; i < len(x.entries); i++ {
		if k := x.key(uint32(i)); !m.mayHold(labelHash(k)) {
			t.Fatalf("gate refuses index key %q: false negative", k)
		}
	}
	if got := 8 * len(m.gate); got > 2<<20 {
		t.Errorf("gate is %d bytes for %d keys, want ≤ 2 MB (L2-resident)", got, len(x.entries))
	}

	labels, admitted := 0, 0
	dnsx.StreamSnapshot(dnsx.SnapshotSpec{NoiseRecords: 1_000_000, Seed: 1}, func(domain string, _ [4]byte) bool {
		d1, d2 := lastTwoDots([]byte(domain))
		label, _ := splitETLDAt([]byte(domain), d1, d2)
		if _, isKey := indexGet(x, label); !isKey {
			labels++
			if m.mayHold(labelHash(label)) {
				admitted++
			}
		}
		return true
	})
	rate := float64(admitted) / float64(labels)
	t.Logf("gate: %d KB over %d keys; %d of %d noise labels admitted (%.2f %%)", len(m.gate)>>7, len(x.entries), admitted, labels, 100*rate)
	if labels < 900_000 || rate > 0.03 {
		t.Errorf("false-positive rate %.4f over %d noise labels, want ≤ 0.03 over ≥ 900K", rate, labels)
	}
}

// TestGateDegenerate: a matcher over no brands still has a gate to ask, and
// labels of every length hash without reading out of range (the empty,
// 1–3, 4–7 and ≥8 byte cases of labelHash) to distinct values.
func TestGateDegenerate(t *testing.T) {
	m := NewMatcher(nil)
	if c, ok := m.Match("example.com"); ok {
		t.Errorf("empty matcher matched %+v", c)
	}
	seen := map[uint64]int{}
	label := []byte("abcdefghijklmnopqrstuvwxyz0123456789-abcdefghijklmnopqrstuvwxyz")
	for n := 0; n <= len(label); n++ {
		h := labelHash(label[:n:n])
		if prev, dup := seen[h]; dup {
			t.Errorf("labelHash collides on prefixes of length %d and %d", prev, n)
		}
		seen[h] = n
	}
}
