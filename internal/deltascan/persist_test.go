package deltascan

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"squatphi/internal/simrand"
)

// TestSaveIsByteDeterministic pins the serving-lifecycle fix: two Saves of
// identical engine state must produce identical bytes. The verdict cache
// is a map, so an unsorted encoder leaks Go's per-range map iteration
// order into the spill — the determinism invariant squatvet enforces on
// scan outputs would not have held for spill artifacts.
func TestSaveIsByteDeterministic(t *testing.T) {
	rng := simrand.New(91)
	model := seedModel(rng, 800)
	m := testMatcher()
	e := NewEngine()
	e.Scan(buildStore(model, rng.Split("b1")), m, 4)
	// A second epoch with churn populates caches with mixed epochs.
	for i := 0; i < 7; i++ {
		model[rng.Letters(10)+".com"] = [4]byte{8, 8, 8, byte(i)}
	}
	e.Scan(buildStore(model, rng.Split("b2")), m, 4)

	var a, b bytes.Buffer
	if err := e.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("double Save of identical state diverged: %d vs %d bytes", a.Len(), b.Len())
	}

	// A loaded engine re-saves to the same bytes too: Load preserves the
	// canonical state, not just the semantic state.
	loaded, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := loaded.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("Save after Load diverged from original spill bytes")
	}
}

// TestSaveFileAtomicReplace exercises the fsx adoption: SaveFile over an
// existing spill yields a loadable file, and the previous artifact is
// fully replaced (no append, no truncation).
func TestSaveFileAtomicReplace(t *testing.T) {
	rng := simrand.New(17)
	model := seedModel(rng, 300)
	m := testMatcher()
	e := NewEngine()
	e.Scan(buildStore(model, rng.Split("b")), m, 2)

	path := filepath.Join(t.TempDir(), "delta.spill")
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e.Scan(buildStore(model, rng.Split("b2")), m, 2)
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != e.Epoch() {
		t.Fatalf("loaded epoch %d, want %d", loaded.Epoch(), e.Epoch())
	}
}

// TestRecoverTruncatedSpillDegradesToFullScan is the crash-recovery
// contract: a spill cut off mid-stream (the exact artifact a non-atomic
// writer leaves after a crash) must not error the restart. Recover hands
// back a fresh engine whose first Scan is a full scan with results
// identical to the cold serial reference.
func TestRecoverTruncatedSpillDegradesToFullScan(t *testing.T) {
	rng := simrand.New(23)
	model := seedModel(rng, 400)
	m := testMatcher()
	e := NewEngine()
	store := buildStore(model, rng.Split("b"))
	e.Scan(store, m, 3)

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "delta.spill")
	// Truncate mid-stream: a valid prologue and header block, half the
	// shard blocks missing.
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadFile(path); err == nil {
		t.Fatal("LoadFile accepted a truncated spill")
	}
	rec, recovered, err := Recover(path)
	if recovered {
		t.Fatal("Recover claimed to restore state from a truncated spill")
	}
	if err == nil {
		t.Fatal("Recover of a corrupt spill should surface the load error")
	}
	got := rec.Scan(store, m, 1)
	if !rec.LastStats().FullScan {
		t.Fatal("first scan after corrupt-spill recovery was not a full scan")
	}
	if want := fullScan(store, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded scan diverged from cold reference: %d vs %d candidates", len(got), len(want))
	}
}

// TestRecoverMissingSpill: a first boot (no spill yet) is not an error.
func TestRecoverMissingSpill(t *testing.T) {
	rec, recovered, err := Recover(filepath.Join(t.TempDir(), "nope.spill"))
	if err != nil {
		t.Fatalf("missing spill reported error: %v", err)
	}
	if recovered {
		t.Fatal("Recover claimed to restore nonexistent state")
	}
	if rec == nil || rec.Epoch() != 0 {
		t.Fatal("expected a fresh engine")
	}
}

// TestRecoverIntactSpillResumes: the happy path restores the epoch and
// the next scan is incremental, not full.
func TestRecoverIntactSpillResumes(t *testing.T) {
	rng := simrand.New(29)
	model := seedModel(rng, 400)
	m := testMatcher()
	e := NewEngine()
	store := buildStore(model, rng.Split("b"))
	e.Scan(store, m, 2)

	path := filepath.Join(t.TempDir(), "delta.spill")
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	rec, recovered, err := Recover(path)
	if err != nil || !recovered {
		t.Fatalf("Recover = (recovered=%v, err=%v), want intact restore", recovered, err)
	}
	rec.Scan(store, m, 2)
	st := rec.LastStats()
	if st.FullScan {
		t.Fatal("scan after intact recovery degraded to a full scan")
	}
	if st.ShardsRescanned != 0 {
		t.Fatalf("unchanged store rescanned %d shards after recovery", st.ShardsRescanned)
	}
}
