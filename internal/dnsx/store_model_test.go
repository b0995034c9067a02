package dnsx

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"squatphi/internal/simrand"
)

// modelPool is the name universe of the store-versus-model streams: small
// enough that names repeat, large enough that a shard's slot table grows
// several times.
var modelPool = func() []string {
	r := simrand.New(77)
	out := make([]string, 1024)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d.%s", r.Letters(1+r.Intn(12)), i, simrand.Pick(r, noiseTLDs))
	}
	return out
}()

// modelRec is the serial model's view of one record.
type modelRec struct {
	name        string // the string the store was first given, when it is known
	ip          [4]byte
	first, last uint64
}

// modelMark is a ShardNameMark taken mid-stream, with the names the model
// held in that shard at the time.
type modelMark struct {
	shard int
	then  ShardMark
	names map[string]bool
}

// storeModelOpSize is the bytes one operation of a stream takes: kind,
// name (two bytes), sequence variant, two address bytes.
const storeModelOpSize = 6

// runStoreModel decodes data into a stream of addAt/Add calls with
// out-of-order and repeated sequence numbers, applies it to a store and to
// a serial map model, and checks that they agree on everything the store
// exposes. data[0] picks the shard count from {1, 7, 32, 2048}; data[1]'s
// low bit puts the explicit sequence numbers after the public Adds' or
// before them. An explicit sequence number is owned by one name, so a
// repeat is a replay of that name and two records never share a position.
func runStoreModel(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 2 {
		return
	}
	shards := []int{1, 7, 32, 2048}[int(data[0])%4]
	s := NewShardedStore(shards)
	pool := uint64(len(modelPool))
	base := uint64(1) << 32 // explicit sequence numbers after every Add
	if data[1]&1 == 1 {
		base = 0
		s.seq.Store(256 * pool) // ... or before every Add, as GenerateSnapshot leaves it
	}
	addSeq := s.seq.Load()
	model := map[string]*modelRec{}
	var held []string // the model's names in the order they arrived
	next := make([]uint64, shards)
	apply := func(seq uint64, given string, d string, ip [4]byte) {
		m := model[d]
		if m == nil {
			model[d] = &modelRec{name: given, ip: ip, first: seq, last: seq}
			held = append(held, d)
			if sh := ShardIndex(d, shards); seq >= next[sh] {
				next[sh] = seq + 1
			}
			return
		}
		m.first = min(m.first, seq)
		if seq >= m.last {
			m.last, m.ip = seq, ip
		}
	}
	var marks []modelMark
	for ops := data[2:]; len(ops) >= storeModelOpSize; ops = ops[storeModelOpSize:] {
		idx := (uint64(ops[1])<<8 | uint64(ops[2])) % pool
		d := modelPool[idx]
		ip := [4]byte{1, 2, ops[4], ops[5] % 4}
		switch ops[0] % 8 {
		case 0, 1, 2: // explicit sequence number, owned by d
			seq := base + uint64(ops[3])*pool + idx
			s.addAt(seq, d, ip)
			apply(seq, d, d, ip)
		case 3: // public Add of the normalised name
			s.Add(d, ip)
			apply(addSeq, d, d, ip)
			addSeq++
		case 4: // public Add of another spelling: the store keeps its own copy
			s.Add(strings.ToUpper(d)+".", ip)
			apply(addSeq, "", d, ip)
			addSeq++
		case 5: // a mark for a later tail walk
			if len(marks) < 8 {
				sh := ShardIndex(d, shards)
				mk := modelMark{shard: sh, then: s.ShardNameMark(sh), names: map[string]bool{}}
				for _, name := range held {
					if ShardIndex(name, shards) == sh {
						mk.names[name] = true
					}
				}
				marks = append(marks, mk)
			}
		case 6: // a walk sorts the shard mid-stream
			s.RangeShard(ShardIndex(d, shards), func(Record) bool { return true })
		case 7: // a lookup mid-stream
			ip, ok := s.Lookup(d)
			if m := model[d]; ok != (m != nil) || (ok && ip != m.ip) {
				t.Fatalf("mid-stream Lookup(%q) = %v, %t; model %+v", d, ip, ok, m)
			}
		}
	}

	// Lookup and Name: every name held, every 64th of the pool (most of
	// them absent), and the store's own string.
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
	}
	probes := append([]string(nil), held...)
	for i := 0; i < len(modelPool); i += 64 {
		probes = append(probes, modelPool[i])
	}
	for _, d := range probes {
		m := model[d]
		ip, ok := s.Lookup(strings.ToUpper(d))
		name, nok := s.Name(d + ".")
		if ok != (m != nil) || nok != ok {
			t.Fatalf("Lookup/Name(%q) found = %t/%t, model %t", d, ok, nok, m != nil)
		}
		if m == nil {
			continue
		}
		if ip != m.ip || name != d {
			t.Fatalf("%q: Lookup = %v, Name = %q; model %v", d, ip, name, m.ip)
		}
		if m.name != "" && unsafe.StringData(name) != unsafe.StringData(m.name) {
			t.Fatalf("Name(%q) is not the string the store was first given", d)
		}
	}

	// Range and RangeShard: insertion order by first sequence number.
	// Walk held, not the map: a map's random order would make the
	// fuzzer's coverage vary from run to run of one input.
	recs := make([]Record, 0, len(model))
	for _, d := range held {
		recs = append(recs, Record{Domain: d, IP: model[d].ip})
	}
	sort.Slice(recs, func(i, j int) bool { return model[recs[i].Domain].first < model[recs[j].Domain].first })
	var got []Record
	s.Range(func(r Record) bool { got = append(got, r); return true })
	if len(recs) > 0 && !reflect.DeepEqual(got, recs) {
		t.Fatalf("shards=%d: Range disagrees with the model (%d vs %d records)", shards, len(got), len(recs))
	}
	perShard := make([][]Record, shards)
	for _, r := range recs {
		sh := ShardIndex(r.Domain, shards)
		perShard[sh] = append(perShard[sh], r)
	}
	sums := s.Checksums()
	for sh := 0; sh < shards; sh++ {
		got = got[:0]
		s.RangeShard(sh, func(r Record) bool { got = append(got, r); return true })
		if len(got)+len(perShard[sh]) > 0 && !reflect.DeepEqual(got, perShard[sh]) {
			t.Fatalf("shards=%d: RangeShard(%d) disagrees with the model", shards, sh)
		}
		var content, names uint64
		for _, r := range perShard[sh] {
			content += RecordHash(r.Domain, r.IP)
			names += nameMix(fnvName(r.Domain))
		}
		if sums[sh] != content || s.ShardChecksum(sh) != content {
			t.Fatalf("shard %d: content checksum %x, model %x", sh, sums[sh], content)
		}
		mk := s.ShardNameMark(sh)
		if mk != (ShardMark{Sum: names, Next: next[sh], Len: len(perShard[sh])}) {
			t.Fatalf("shard %d: mark %+v, model sum %x next %d len %d", sh, mk, names, next[sh], len(perShard[sh]))
		}
		// Once the writers stop, the lock-free reading is the locked one.
		if _, locked, _ := s.TailShard(sh, 0, func([]byte) {}); mk != locked {
			t.Fatalf("shard %d: lock-free mark %+v, locked reading %+v", sh, mk, locked)
		}
	}

	// TailShard: the visited names and the checksum identity from each mark.
	for _, mk := range marks {
		var want []string
		var wantSum uint64
		onlyNewVisited := true
		for _, r := range perShard[mk.shard] {
			fresh := !mk.names[r.Domain]
			if model[r.Domain].first >= mk.then.Next {
				want = append(want, r.Domain)
				wantSum += nameMix(fnvName(r.Domain))
			} else if fresh {
				onlyNewVisited = false // arrived below the mark: the walk cannot see it
			}
		}
		var visitedNames []string
		visited, now, err := s.TailShard(mk.shard, mk.then.Next, func(b []byte) { visitedNames = append(visitedNames, string(b)) })
		if err != nil || !reflect.DeepEqual(visitedNames, want) || visited != wantSum {
			t.Fatalf("TailShard(%d, %d) visited %v (sum %x), model %v (sum %x)", mk.shard, mk.then.Next, visitedNames, visited, want, wantSum)
		}
		if holds := visited == now.Sum-mk.then.Sum; holds != onlyNewVisited {
			t.Fatalf("TailShard(%d, %d): identity holds = %t, model says %t", mk.shard, mk.then.Next, holds, onlyNewVisited)
		}
		n := 0
		if visited, _, _ = s.TailShard(mk.shard, 0, func([]byte) { n++ }); visited != now.Sum || n != now.Len {
			t.Fatalf("TailShard(%d, 0) visited %d names, sum %x; mark %+v", mk.shard, n, visited, now)
		}
	}
}

// TestStoreVsModel checks the sharded columnar store against a serial map
// model over random streams at shard counts 1, 7, 32 and 2048.
func TestStoreVsModel(t *testing.T) {
	r := simrand.New(5)
	for shardSel := 0; shardSel < 4; shardSel++ {
		for rep := 0; rep < 4; rep++ {
			ops := 3000
			if testing.Short() {
				ops = 600
			}
			data := make([]byte, 2+storeModelOpSize*ops)
			for i := range data {
				data[i] = byte(r.Intn(256))
			}
			data[0], data[1] = byte(shardSel), byte(rep)
			t.Run(fmt.Sprintf("shards=%d/rep=%d", []int{1, 7, 32, 2048}[shardSel], rep), func(t *testing.T) {
				runStoreModel(t, data)
			})
		}
	}
}

// FuzzStoreVsModel is TestStoreVsModel over arbitrary streams.
func FuzzStoreVsModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 1, 5, 0, 1, 0, 0, 0, 0, 0, 2, 3, 9, 9})
	f.Add([]byte{1, 1, 3, 0, 7, 0, 1, 2, 0, 0, 7, 9, 1, 2, 5, 0, 9, 0, 0, 0, 6, 0, 7, 0, 0, 0})
	f.Add([]byte{2, 0, 4, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 6, 1, 1, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 0, 0, 9, 1, 1, 1, 0, 0, 3, 1, 1, 7, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer streams add little the random test does not cover, and
		// they make each minimisation of a new input take most of a
		// 30-second fuzz-smoke run.
		if len(data) > 2+storeModelOpSize*4096 {
			data = data[:2+storeModelOpSize*4096]
		}
		runStoreModel(t, data)
	})
}

// storeRetainedBytesLimit bounds the live heap a generated store retains
// per record: the name, four columns and its share of the slot table. A
// map-and-pointer layout read 121 B here.
const storeRetainedBytesLimit = 80

// TestStoreRetainedBytes measures the live heap a 200K-record generated
// store retains, per record, after the generator's garbage is collected.
func TestStoreRetainedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 200K-record store")
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	s := GenerateSnapshot(SnapshotSpec{NoiseRecords: 200_000, Seed: 1})
	perRec := (float64(live()) - float64(before)) / float64(s.Len())
	runtime.KeepAlive(s)
	t.Logf("store retains %.1f B per record over %d records (limit %d)", perRec, s.Len(), storeRetainedBytesLimit)
	if perRec > storeRetainedBytesLimit {
		t.Errorf("store retains %.1f B per record, want ≤ %d", perRec, storeRetainedBytesLimit)
	}
}

// BenchmarkStoreRange is the K-way merge of Range at a few shard counts.
func BenchmarkStoreRange(b *testing.B) {
	for _, shards := range []int{1, 32, 2048} {
		s := GenerateSnapshot(SnapshotSpec{NoiseRecords: 100_000, Seed: 3, Shards: shards})
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				s.Range(func(Record) bool { n++; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/rec")
		})
	}
}
