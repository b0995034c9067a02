package deltascan

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
	"squatphi/internal/snapfmt"
)

// openSnapshot writes store in the snapfmt layout and opens the bytes.
func openSnapshot(t *testing.T, store *dnsx.Store) *snapfmt.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snapfmt.WriteStore(&buf, store); err != nil {
		t.Fatal(err)
	}
	snap, err := snapfmt.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestPropertySnapshotSource is the contract of the snapshot as an engine
// source, at workers 1, 2 and 64: the engine over a snapfmt.Snapshot, the
// engine over the Store it was written from and the serial reference
// agree; a rescan of the same snapshot skips every shard and matches
// nothing; a snapshot of the mutated store rescans exactly the segments
// whose checksum moved; and an engine that moves from the Store to its
// Snapshot returns the same slice.
func TestPropertySnapshotSource(t *testing.T) {
	m := testMatcher()
	for _, seed := range []uint64{3, 1989, 0xfeed} {
		rng := simrand.New(seed)
		model := seedModel(rng.Split("model"), 300+rng.Intn(300))
		store := buildStore(model, rng.Split("build"))
		snap := openSnapshot(t, store)
		mutate(model, rng.Split("mutate"))
		store2 := buildStore(model, rng.Split("build2"))
		snap2 := openSnapshot(t, store2)
		moved := 0
		for i := 0; i < snap.NumShards(); i++ {
			if snap.ShardNameMark(i).Sum != snap2.ShardNameMark(i).Sum {
				moved++
			}
		}
		want, want2 := fullScan(store, m), fullScan(store2, m)
		for _, workers := range []int{1, 2, 64} {
			name := fmt.Sprintf("seed %d workers %d", seed, workers)
			onSnap, onStore := NewEngine(), NewEngine()
			if got := onSnap.Scan(snap, m, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: engine over the snapshot: %d candidates, reference %d", name, len(got), len(want))
			}
			if got := onStore.Scan(store, m, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: engine over the store: %d candidates, reference %d", name, len(got), len(want))
			}
			if got := onSnap.Scan(snap, m, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: rescan of the same snapshot diverged", name)
			}
			if st := onSnap.LastStats(); st.ShardsSkipped != snap.NumShards() || st.RecordsWalked != 0 || st.FullScan {
				t.Fatalf("%s: rescan of the same snapshot = %+v, want every shard skipped", name, st)
			}
			if got := onSnap.Scan(snap2, m, workers); !reflect.DeepEqual(got, want2) {
				t.Fatalf("%s: scan of the next snapshot: %d candidates, reference %d", name, len(got), len(want2))
			}
			if st := onSnap.LastStats(); st.ShardsRescanned != moved || st.FullScan {
				t.Fatalf("%s: next snapshot = %+v, want the %d segments whose checksum moved rescanned", name, st, moved)
			}
			if got := onStore.Scan(snap, m, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: engine moved from the store to its snapshot diverged", name)
			}
		}
	}
}

// TestSnapshotListingANameTwice: a snapfmt file may list a name twice
// (snapfmt.Writer does not deduplicate). The engine reports it once, like
// the serial reference over the store that collapses the two, on its first
// scan and again after a spill round trip.
func TestSnapshotListingANameTwice(t *testing.T) {
	m := testMatcher()
	w := snapfmt.NewWriter(0)
	store := dnsx.NewStore()
	for i, d := range []string{"paypa1.com", "example.com", "paypa1.com", "faceb00k.com", "example.com"} {
		ip := [4]byte{10, 0, 0, byte(i)}
		w.Add(d, ip)
		store.Add(d, ip)
	}
	var file bytes.Buffer
	if _, err := w.WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	snap, err := snapfmt.OpenBytes(file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := fullScan(store, m)
	e := NewEngine()
	if got := e.Scan(snap, m, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("first scan: %v, reference %v", got, want)
	}
	var spill bytes.Buffer
	if err := e.Save(&spill); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&spill)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Scan(snap, m, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan after Load: %v, reference %v", got, want)
	}
}
