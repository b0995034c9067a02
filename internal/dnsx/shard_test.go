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

// shardOf is the shard a domain lands in under s's partitioning.
func shardOf(s *Store, domain string) int { return ShardIndex(Normalize(domain), s.NumShards()) }

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
// store's observable contents or Range order, for serial Adds and for a
// generator whose workers reach each shard out of sequence order.
func TestShardLayoutInvariance(t *testing.T) {
	build := func(shards int) *Store {
		s := NewShardedStore(shards)
		r := simrand.New(7)
		for i := 0; i < 300; i++ {
			s.Add(r.Letters(8)+".net", RandomIP(r))
		}
		return s
	}
	generate := func(shards int) *Store {
		return GenerateSnapshot(SnapshotSpec{Planted: []string{"faceb00k.com"}, NoiseRecords: 20_000, Seed: 4, Workers: 4, Shards: shards})
	}
	records := func(s *Store) (out []Record) {
		s.Range(func(r Record) bool { out = append(out, r); return true })
		return out
	}
	for _, mk := range []func(int) *Store{build, generate} {
		want := records(mk(1))
		for _, shards := range []int{32, 2048} {
			if got := records(mk(shards)); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: Range order or contents differ from one shard's (%d vs %d records, first diff near %q)",
					shards, len(got), len(want), firstDiff(domainsOf(got), domainsOf(want)))
			}
		}
	}
}

func domainsOf(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Domain
	}
	return out
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
			// The workers filled the shards out of order, so the store
			// sorted them and rebuilt their slot tables: every record must
			// still be found in its own store.
			if own, ok := s.Lookup(r.Domain); !ok || own != r.IP {
				t.Fatalf("workers=%d: Lookup(%s) = %v, %t in its own store", spec.Workers, r.Domain, own, ok)
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

// TestStoreConcurrentAccess exercises Add/Lookup/Name/RangeShard/
// TailShard/Len concurrently, with the writers growing every shard's slot
// table several times over while the readers probe it; run under -race it
// is the store's thread-safety proof.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	name := func(g int, r *simrand.RNG) string { return fmt.Sprintf("w%d-%s.com", g, r.Letters(6)) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := simrand.New(uint64(g))
			for i := 0; i < 300; i++ {
				s.Add(name(g, r), RandomIP(r))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // replays writer g's names
			defer wg.Done()
			r := simrand.New(uint64(g))
			for i := 0; i < 300; i++ {
				d := name(g, r)
				RandomIP(r)
				if got, ok := s.Name(d); ok && got != d {
					t.Errorf("Name(%q) = %q", d, got)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A concurrent Add may land below a mark already read, so only the
		// walk from 0 is held to the mark it returns.
		marks := make([]ShardMark, s.NumShards())
		for i := 0; i < 5; i++ {
			for shard := range marks {
				_, now, _ := s.TailShard(shard, marks[shard].Next, func(b []byte) {
					if ShardIndex(string(b), len(marks)) != shard {
						t.Errorf("TailShard(%d) visited %q of another shard", shard, b)
					}
				})
				n := 0
				if visited, all, _ := s.TailShard(shard, 0, func([]byte) { n++ }); visited != all.Sum || n != all.Len {
					t.Errorf("shard %d: walk from 0 visited %d names (sum %x), mark %+v", shard, n, visited, all)
				}
				marks[shard] = now
			}
		}
	}()
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
			for shard := 0; shard < s.NumShards(); shard++ {
				s.RangeShard(shard, func(Record) bool { return true })
			}
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
		if got := s.ShardNameMark(i).Sum; got != names {
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
		if a.ShardNameMark(i).Sum != b.ShardNameMark(i).Sum {
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
		before[i] = a.ShardNameMark(i).Sum
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
		if a.ShardNameMark(i).Sum != before[i] {
			t.Fatalf("shard %d: name checksum moved on an overwrite or re-point", i)
		}
	}

	// One new name moves exactly its own shard's name checksum.
	a.Add("a-brand-new-name.com", [4]byte{1, 2, 3, 4})
	for i := range before {
		if moved, want := a.ShardNameMark(i).Sum != before[i], i == shardOf(a, "a-brand-new-name.com"); moved != want {
			t.Fatalf("shard %d: name checksum moved = %t after a new name in shard %d", i, moved, shardOf(a, "a-brand-new-name.com"))
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
				_ = s.ShardNameMark(i % 8).Sum
			}
		}(g)
	}
	wg.Wait()
	assertSumsMatchRecords(t, s, "after concurrent adds")
}

// TestShardNameMarkNeverAheadOfSum: one writer adds new names and
// re-points old ones while readers loop ShardNameMark, which takes no
// lock. Every reading's Sum must be one the writer's history holds, and
// its Next and Len no newer than the ones the shard held with that Sum:
// a reading ahead of its Sum would let a scan that skips the shard adopt a
// Next past a name the Sum does not count. Under -race it is also the
// proof that the lock-free read touches nothing a writer writes plainly.
func TestShardNameMarkNeverAheadOfSum(t *testing.T) {
	const shards = 2
	adds := 60_000
	if testing.Short() {
		adds = 15_000
	}
	s := NewShardedStore(shards)
	// history[k] maps every Sum shard k held to the mark it held with it.
	history := make([]map[uint64]ShardMark, shards)
	for k := range history {
		history[k] = map[uint64]ShardMark{0: {}}
	}
	type reading struct {
		shard int
		mark  ShardMark
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	readings := make([][]reading, 2)
	for g := range readings {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := make([]ShardMark, shards)
			for !done.Load() {
				for k := range last {
					if m := s.ShardNameMark(k); m != last[k] {
						last[k] = m
						readings[g] = append(readings[g], reading{k, m})
					}
				}
			}
		}(g)
	}
	r := simrand.New(41)
	cur := make([]ShardMark, shards)
	var names []string
	for i := 0; i < adds; i++ { // Add i takes sequence number i
		if i%3 == 2 {
			s.Add(names[r.Intn(len(names))], RandomIP(r)) // re-point: the mark stays
			continue
		}
		d := fmt.Sprintf("n%d-%s.com", i, r.Letters(4))
		names = append(names, d)
		k := ShardIndex(d, shards)
		cur[k] = ShardMark{Sum: cur[k].Sum + nameMix(fnvName(d)), Next: uint64(i) + 1, Len: cur[k].Len + 1}
		history[k][cur[k].Sum] = cur[k]
		s.Add(d, RandomIP(r))
	}
	done.Store(true)
	wg.Wait()
	n := 0
	for _, rs := range readings {
		n += len(rs)
		for _, rd := range rs {
			held, ok := history[rd.shard][rd.mark.Sum]
			if !ok {
				t.Fatalf("shard %d: reading %+v has a Sum the shard never held", rd.shard, rd.mark)
			}
			if rd.mark.Next > held.Next || rd.mark.Len > held.Len {
				t.Fatalf("shard %d: reading %+v is ahead of its Sum, which the shard held with %+v", rd.shard, rd.mark, held)
			}
		}
	}
	for k := range cur {
		if got := s.ShardNameMark(k); got != cur[k] {
			t.Fatalf("shard %d: final mark %+v, writer's %+v", k, got, cur[k])
		}
	}
	t.Logf("%d distinct readings over %d adds", n, adds)
}

// TestTailShardVisitsOnlyNewNames: a tail walk from an earlier mark visits
// the names inserted since, in insertion order — not the re-pointed ones —
// and their checksum terms account exactly for the move of the shard's
// name checksum. From 0 it walks the whole shard.
func TestTailShardVisitsOnlyNewNames(t *testing.T) {
	r := simrand.New(31)
	s := NewShardedStore(4)
	var old []string
	for i := 0; i < 200; i++ {
		d := fmt.Sprintf("%s-%d.com", r.Letters(6), i)
		old = append(old, d)
		s.Add(d, RandomIP(r))
	}
	const shard = 2
	then := s.ShardNameMark(shard)
	var added []string
	for i := 0; i < 60; i++ {
		s.Add(old[r.Intn(len(old))], RandomIP(r)) // re-point
		d := fmt.Sprintf("new-%s-%d.com", r.Letters(6), i)
		s.Add(d, RandomIP(r))
		if shardOf(s, d) == shard {
			added = append(added, d)
		}
	}
	if len(added) == 0 {
		t.Fatal("test premise: no new name landed in the shard")
	}
	var got []string
	visit := func(name []byte) { got = append(got, string(name)) }
	visited, now, _ := s.TailShard(shard, then.Next, visit)
	if !reflect.DeepEqual(got, added) {
		t.Fatalf("tail walk visited %v, want the new names %v", got, added)
	}
	if visited != now.Sum-then.Sum || now.Len != then.Len+len(added) {
		t.Fatalf("visited sum %x, checksum moved by %x; Len %d → %d with %d added", visited, now.Sum-then.Sum, then.Len, now.Len, len(added))
	}
	got = got[:0]
	visited, _, _ = s.TailShard(shard, 0, visit)
	if _, names := recomputedSums(s, shard); visited != now.Sum || visited != names || len(got) != now.Len {
		t.Fatalf("a walk from 0 visited %d of %d records, sum %x of %x", len(got), now.Len, visited, now.Sum)
	}
}

// TestTailShardMissesNameBelowMark: a name that arrives with a sequence
// number below a mark already handed out — a concurrent writer that lost
// the race to the lock — is not visited by the tail walk from that mark,
// and the visited sum then disagrees with the shard's name checksum, which
// is the only thing that tells a caller the tail cannot be trusted.
func TestTailShardMissesNameBelowMark(t *testing.T) {
	s := NewShardedStore(1)
	for i := 0; i < 10; i++ {
		s.addAt(uint64(i), fmt.Sprintf("early-%d.com", i), [4]byte{1, 1, 1, byte(i)})
	}
	s.addAt(20, "ahead.com", [4]byte{2, 2, 2, 2})
	then := s.ShardNameMark(0)
	if then.Next != 21 {
		t.Fatalf("mark = %d, want 21", then.Next)
	}
	s.addAt(15, "late-below-mark.com", [4]byte{3, 3, 3, 3})
	s.addAt(30, "after-mark.com", [4]byte{4, 4, 4, 4})
	var got []string
	visited, now, _ := s.TailShard(0, then.Next, func(name []byte) { got = append(got, string(name)) })
	if !reflect.DeepEqual(got, []string{"after-mark.com"}) {
		t.Fatalf("tail walk visited %v, want only after-mark.com", got)
	}
	if visited == now.Sum-then.Sum {
		t.Fatal("the checksum identity held though a name below the mark was never visited")
	}
	if want := nameMix(fnvName("late-below-mark.com")); now.Sum-then.Sum-visited != want {
		t.Fatalf("the sums differ by %x, want the missed name's term %x", now.Sum-then.Sum-visited, want)
	}
}
