package dnsx

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"squatphi/internal/simrand"
)

// TestShardedStoreInsertionOrder checks that global insertion order
// survives sharding: Domains and Range iterate in the order records were
// added, whatever shard each domain hashed to.
func TestShardedStoreInsertionOrder(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		s := NewShardedStore(shards)
		var want []string
		r := simrand.New(11)
		for i := 0; i < 500; i++ {
			d := fmt.Sprintf("%s-%d.com", r.Letters(6), i)
			want = append(want, d)
			s.Add(d, RandomIP(r))
		}
		if got := s.Domains(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: Domains() broke insertion order (got %d, first diff near %q)", shards, len(got), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []string) string {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return a[i]
		}
	}
	return ""
}

// TestShardLayoutInvariance checks that the shard count never changes the
// store's observable contents or order.
func TestShardLayoutInvariance(t *testing.T) {
	build := func(shards int) *Store {
		s := NewShardedStore(shards)
		r := simrand.New(7)
		for i := 0; i < 300; i++ {
			s.Add(r.Letters(8)+".net", RandomIP(r))
		}
		return s
	}
	a, b := build(1), build(64)
	if !reflect.DeepEqual(a.Domains(), b.Domains()) {
		t.Fatal("iteration order depends on shard count")
	}
}

// TestParallelRangeMatchesRange checks that ParallelRange visits exactly
// the record set of Range, at several worker counts.
func TestParallelRangeMatchesRange(t *testing.T) {
	s := GenerateSnapshot(SnapshotSpec{Planted: []string{"paypal-login.com"}, NoiseRecords: 2000, Seed: 3})
	want := map[string][4]byte{}
	s.Range(func(r Record) bool {
		want[r.Domain] = r.IP
		return true
	})
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		got := map[string][4]byte{}
		s.ParallelRange(workers, func(r Record) bool {
			mu.Lock()
			got[r.Domain] = r.IP
			mu.Unlock()
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: ParallelRange visited %d records, Range %d", workers, len(got), len(want))
		}
	}
}

// TestParallelRangeStops checks that a false return terminates the whole
// iteration without visiting every record.
func TestParallelRangeStops(t *testing.T) {
	s := GenerateSnapshot(SnapshotSpec{NoiseRecords: 5000, Seed: 4})
	var mu sync.Mutex
	visited := 0
	s.ParallelRange(4, func(Record) bool {
		mu.Lock()
		visited++
		mu.Unlock()
		return false
	})
	if visited == 0 || visited >= s.Len() {
		t.Fatalf("stop after first record visited %d of %d", visited, s.Len())
	}
}

// TestGenerateSnapshotWorkerInvariance is the determinism contract of the
// parallel generator: the same spec yields byte-identical snapshots (same
// records, same IPs, same order) at any worker count.
func TestGenerateSnapshotWorkerInvariance(t *testing.T) {
	base := SnapshotSpec{Planted: []string{"faceb00k.com", "paypal-cash.net"}, NoiseRecords: 3000, Seed: 99}
	specs := []SnapshotSpec{base, base, base}
	specs[0].Workers = 1
	specs[1].Workers = 3
	specs[2].Workers = 16
	ref := GenerateSnapshot(specs[0])
	refDomains := ref.Domains()
	for _, spec := range specs[1:] {
		s := GenerateSnapshot(spec)
		if !reflect.DeepEqual(s.Domains(), refDomains) {
			t.Fatalf("workers=%d: generated domain order differs from workers=1", spec.Workers)
		}
		s.Range(func(r Record) bool {
			ip, ok := ref.Lookup(r.Domain)
			if !ok || ip != r.IP {
				t.Fatalf("workers=%d: record %s differs from workers=1", spec.Workers, r.Domain)
			}
			return true
		})
	}
	if refDomains[0] != "faceb00k.com" || refDomains[1] != "paypal-cash.net" {
		t.Fatalf("planted domains not first in insertion order: %v", refDomains[:2])
	}
}

// TestStoreAddAfterGenerate checks that public Adds after generation land
// at the end of insertion order (the generator reserves its sequence range).
func TestStoreAddAfterGenerate(t *testing.T) {
	s := GenerateSnapshot(SnapshotSpec{NoiseRecords: 100, Seed: 1})
	s.Add("zzz-late.com", [4]byte{9, 9, 9, 9})
	d := s.Domains()
	if d[len(d)-1] != "zzz-late.com" {
		t.Fatalf("late Add not last in order: %q", d[len(d)-1])
	}
}

// TestStoreConcurrentAccess exercises Add/Lookup/ParallelRange/Len/
// WriteSnapshot concurrently; run under -race it is the store's
// thread-safety proof.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := simrand.New(uint64(g))
			for i := 0; i < 300; i++ {
				s.Add(fmt.Sprintf("w%d-%s.com", g, r.Letters(6)), RandomIP(r))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := simrand.New(uint64(100 + g))
			for i := 0; i < 300; i++ {
				s.Lookup(r.Letters(6) + ".com")
				_ = s.Len()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			var n atomic.Int64
			s.ParallelRange(3, func(Record) bool {
				n.Add(1)
				return true
			})
		}
	}()
	wg.Wait()
	if s.Len() != 4*300 {
		// Collisions are possible but astronomically unlikely with the
		// per-writer prefixes; equality is the expected outcome.
		t.Fatalf("Len = %d after concurrent adds, want %d", s.Len(), 4*300)
	}
}

// recomputedSums walks one shard and recomputes both rolling checksums
// from its records.
func recomputedSums(s *Store, shard int) (content, names uint64) {
	s.RangeShard(shard, func(r Record) bool {
		content += RecordHash(r.Domain, r.IP)
		names += nameMix(fnvName(r.Domain))
		return true
	})
	return content, names
}

func assertSumsMatchRecords(t *testing.T, s *Store, when string) {
	t.Helper()
	for i := 0; i < s.NumShards(); i++ {
		content, names := recomputedSums(s, i)
		if got := s.ShardChecksum(i); got != content {
			t.Fatalf("%s: shard %d content checksum %x, recomputed %x", when, i, got, content)
		}
		if got := s.ShardNameChecksum(i); got != names {
			t.Fatalf("%s: shard %d name checksum %x, recomputed %x", when, i, got, names)
		}
	}
}

// TestShardNameChecksum: the rolling name checksum equals the sum
// recomputed from the shard's records, depends on the set of names only —
// not on insertion order, overwrites or re-points — and moves when a name
// is added, while the content checksum follows the addresses too.
func TestShardNameChecksum(t *testing.T) {
	r := simrand.New(21)
	type rec struct {
		d  string
		ip [4]byte
	}
	var recs []rec
	for i := 0; i < 600; i++ {
		recs = append(recs, rec{r.Letters(3+r.Intn(9)) + ".com", RandomIP(r)})
	}
	a, b := NewShardedStore(16), NewShardedStore(16)
	for _, x := range recs {
		a.Add(x.d, x.ip)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		b.Add(strings.ToUpper(recs[i].d)+".", RandomIP(r)) // other order, other spelling, other address
	}
	assertSumsMatchRecords(t, a, "after inserts")
	assertSumsMatchRecords(t, b, "after reversed inserts")
	contentDiffers := false
	for i := 0; i < a.NumShards(); i++ {
		if a.ShardNameChecksum(i) != b.ShardNameChecksum(i) {
			t.Fatalf("shard %d: name checksum depends on insertion order or addresses", i)
		}
		contentDiffers = contentDiffers || a.ShardChecksum(i) != b.ShardChecksum(i)
	}
	if !contentDiffers {
		t.Fatal("content checksums ignore the addresses")
	}

	// Overwrites with the same address and re-points leave every name
	// checksum where it was.
	before := make([]uint64, a.NumShards())
	for i := range before {
		before[i] = a.ShardNameChecksum(i)
	}
	for i, x := range recs {
		if i%2 == 0 {
			a.Add(x.d, x.ip)
		} else {
			a.Add(x.d, RandomIP(r))
		}
	}
	assertSumsMatchRecords(t, a, "after overwrites and re-points")
	for i := range before {
		if a.ShardNameChecksum(i) != before[i] {
			t.Fatalf("shard %d: name checksum moved on an overwrite or re-point", i)
		}
	}

	// One new name moves exactly its own shard's name checksum.
	a.Add("a-brand-new-name.com", [4]byte{1, 2, 3, 4})
	for i := range before {
		if moved, want := a.ShardNameChecksum(i) != before[i], i == a.ShardOf("a-brand-new-name.com"); moved != want {
			t.Fatalf("shard %d: name checksum moved = %t after a new name in shard %d", i, moved, a.ShardOf("a-brand-new-name.com"))
		}
	}
	assertSumsMatchRecords(t, a, "after a new name")
}

// TestShardNameChecksumConcurrentAdd: writers racing on overlapping names
// (inserts, overwrites and re-points of the same keys) leave both
// checksums equal to the sums over the records that ended up stored. Run
// under -race.
func TestShardNameChecksumConcurrentAdd(t *testing.T) {
	s := NewShardedStore(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := simrand.New(uint64(g))
			for i := 0; i < 500; i++ {
				s.Add(fmt.Sprintf("shared-%d.com", r.Intn(200)), RandomIP(r))
				s.Add(fmt.Sprintf("w%d-%d.com", g, i), RandomIP(r))
				_ = s.ShardNameChecksum(i % 8)
			}
		}(g)
	}
	wg.Wait()
	assertSumsMatchRecords(t, s, "after concurrent adds")
}
