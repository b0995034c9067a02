package domlm

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"squatphi/internal/simrand"
)

// FuzzScoreBytes pins three score-path invariants for arbitrary input
// bytes: never panic, score ∈ [0, 1], and the zero-allocation byte path
// is bit-identical to the string path.
func FuzzScoreBytes(f *testing.F) {
	f.Add([]byte("paypal.com"))
	f.Add([]byte("PAYPAL.COM."))
	f.Add([]byte(""))
	f.Add([]byte("."))
	f.Add([]byte("xn--pypal-4ve.co.uk"))
	f.Add([]byte("a-b-c-9.\xff\x00weird"))

	m := Train(corpus, DefaultConfig())
	small := Train(corpus[:3], Config{Order: 2, AddK: 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Scratch
		for _, mod := range []*Model{m, small} {
			got := mod.ScoreBytes(b, &s)
			if math.IsNaN(got) || got < 0 || got > 1 {
				t.Fatalf("ScoreBytes(%q) = %v, out of [0,1]", b, got)
			}
			if want := mod.Score(string(b)); got != want {
				t.Fatalf("ScoreBytes(%q) = %v, Score = %v", b, got, want)
			}
		}
	})
}

// FuzzModelDecode pins that Decode tolerates arbitrary bytes: corrupt or
// truncated input yields an error, never a panic, and anything it does
// accept re-encodes canonically and scores within range.
func FuzzModelDecode(f *testing.F) {
	// Seed with a real (tiny, order-2) model plus near-miss corruptions so
	// the fuzzer starts at the interesting boundaries.
	enc := Train([]string{"paypal", "google", "chase"}, Config{Order: 2, AddK: 0.5}).Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(enc[:headerSize])
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 1
	f.Add(bad)
	f.Add([]byte("SQDLM\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		if got := m.ScoreLabel("paypal"); math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("decoded model scores out of range: %v", got)
		}
		re := m.Encode()
		if len(re) != len(b) {
			t.Fatalf("re-encode changed size: %d -> %d", len(b), len(re))
		}
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-encode of accepted model no longer decodes: %v", err)
		}
	})
}

// mustReject fails the test unless Decode refuses b without panicking.
func mustReject(t *testing.T, what string, b []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked on %s: %v", what, r)
		}
	}()
	if m, err := Decode(b); err == nil || m != nil {
		t.Fatalf("Decode accepted %s (model %v, err %v)", what, m != nil, err)
	}
}

// TestDecodeHostileFile is the deterministic half of FuzzModelDecode, on
// model files of real size: a truncation at every header offset and every
// 4 KB boundary, a flip of every header bit and of one seeded bit per 4 KB
// block are all refused — an error, no panic, no model. Every block of the
// order-3 file is flipped; a flip in the 10 MB order-4 file (the default
// configuration) costs a 20 ms hash of the whole payload, so there the
// blocks are sampled — first, last, and an even spread between — and
// under -short (the race pass) so are the header bits.
func TestDecodeHostileFile(t *testing.T) {
	const block = 4 << 10
	r := simrand.New(23).Split("hostile-model")
	for _, tc := range []struct {
		cfg    Config
		blocks int // payload blocks flipped; 0 = every one
	}{
		{Config{Order: 3}, 0},
		{DefaultConfig(), 64},
	} {
		enc := Train(corpus, tc.cfg).Encode()
		if _, err := Decode(enc); err != nil {
			t.Fatalf("order %d: pristine model refused: %v", tc.cfg.Order, err)
		}
		for n := 0; n <= headerSize; n++ {
			mustReject(t, "a header truncation", enc[:n])
		}
		for n := headerSize + block; n < len(enc); n += block {
			mustReject(t, "a payload truncation", enc[:n])
		}
		mustReject(t, "a file one byte short", enc[:len(enc)-1])

		flip := func(what string, bit int) {
			enc[bit/8] ^= 1 << (bit % 8)
			mustReject(t, what, enc)
			enc[bit/8] ^= 1 << (bit % 8)
		}
		nBlocks := (len(enc) - headerSize + block - 1) / block
		flipInBlock := func(b int) {
			lo := headerSize + b*block
			hi := min(lo+block, len(enc))
			flip("a flipped payload bit", lo*8+r.Intn((hi-lo)*8))
		}
		bitStep, step := 1, 1
		if tc.blocks > 0 {
			if testing.Short() {
				bitStep, tc.blocks = 7, tc.blocks/8
			}
			step = nBlocks / tc.blocks
		}
		for bit := 0; bit < headerSize*8; bit += bitStep {
			flip("a flipped header bit", bit)
		}
		for b := 0; b < nBlocks-1; b += step {
			flipInBlock(b)
		}
		flipInBlock(nBlocks - 1) // holds the stored fingerprint
	}
}

// TestReadFileHostilePaths: a missing file, an empty one and a directory
// are errors, not models.
func TestReadFileHostilePaths(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.dlm")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.dlm"), empty, dir} {
		if m, err := ReadFile(path); err == nil || m != nil {
			t.Errorf("ReadFile(%s) = (model %v, %v), want an error and no model", path, m != nil, err)
		}
	}
	good := filepath.Join(dir, "good.dlm")
	m := Train(corpus, Config{Order: 2})
	if err := m.WriteFile(good); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(good); err != nil || got.Fingerprint() != m.Fingerprint() {
		t.Errorf("ReadFile of a written model: fingerprint/err = %v, want %#x", err, m.Fingerprint())
	}
}
