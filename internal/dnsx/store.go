package dnsx

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Record is one entry of an ActiveDNS-style snapshot: a domain name paired
// with the IPv4 address it resolved to. This is the unit the squatting
// scanner consumes (paper §3.1: "each record is characterized by a domain
// and an IP address").
type Record struct {
	Domain string
	IP     [4]byte
}

// IPString returns the dotted-quad form of the record's address.
func (r Record) IPString() string {
	return fmt.Sprintf("%d.%d.%d.%d", r.IP[0], r.IP[1], r.IP[2], r.IP[3])
}

// DefaultShards is the shard count of NewStore. It is fixed (rather than
// derived from GOMAXPROCS) so a snapshot's iteration behaviour never
// depends on the machine that built it; raise it via NewShardedStore for
// stores that must absorb very wide concurrent write loads.
const DefaultShards = 32

// storeShard is one lock domain of the store. Its records are parallel
// columns: record i is names[i] at ips[i], and first[i]/last[i] are the
// bookkeeping that keeps sharded iteration deterministic. first fixes the
// record's position in global insertion order; last arbitrates overwrites
// (the highest sequence number's IP wins, reproducing serial
// last-write-wins semantics no matter in which order concurrent writers
// actually reach the shard). slots is an open-addressed table of record
// numbers + 1 (0 = empty), probed linearly from the top bits of the name's
// mixed FNV-1a hash, whose low bits chose the shard. A record costs its
// name, 36 bytes of columns and a slot: no heap object, map bucket or
// pointer of its own (TestStoreRetainedBytes).
type storeShard struct {
	mu sync.RWMutex
	// csum is the shard's rolling content checksum: the wrapping sum of
	// RecordHash over the shard's current records. It is maintained
	// incrementally on every write, so reading it is O(1), and it depends
	// only on the shard's (domain, IP) set — never on insertion order,
	// sequence numbers, or write interleaving. Two shards holding the same
	// records report the same checksum, which is what lets a delta scanner
	// skip unchanged shards between snapshot epochs.
	csum uint64
	// The shard's name mark is not here but in Store.marks, so a scan's
	// partition reads every mark without touching a lock.
	names  []string // the store's one copy of each name
	ips    [][4]byte
	first  []uint64 // ascending when sorted
	last   []uint64
	slots  []uint32 // power-of-two length, load ≤ maxLoadNum/maxLoadDen
	shift  uint     // 64 - log2(len(slots))
	sorted bool
}

// A shard's slot table doubles before its load passes
// maxLoadNum/maxLoadDen.
const maxLoadNum, maxLoadDen = 3, 4

// slotBits is log2 of the smallest slot table (never fewer than 8 slots)
// that holds n records without growing.
func slotBits(n int) uint {
	bits := uint(3)
	for n*maxLoadDen > (1<<bits)*maxLoadNum {
		bits++
	}
	return bits
}

// reserve sizes an empty shard for n records.
func (sh *storeShard) reserve(n int) {
	sh.names = make([]string, 0, n)
	sh.ips = make([][4]byte, 0, n)
	sh.first = make([]uint64, 0, n)
	sh.last = make([]uint64, 0, n)
	sh.resize(slotBits(n))
}

// fit sorts a shard that concurrent writers filled and gives back what its
// reservation left spare: the columns are cut to their length and the slot
// table to the size its records need.
func (sh *storeShard) fit() {
	sh.ensureSorted()
	sh.names, sh.ips = slices.Clone(sh.names), slices.Clone(sh.ips)
	sh.first, sh.last = slices.Clone(sh.first), slices.Clone(sh.last)
	sh.resize(slotBits(len(sh.names)))
}

// find returns the slot holding domain, whose fnvName is h, or the empty
// slot where it would be inserted.
//
//squat:hot
func (sh *storeShard) find(domain string, h uint64) uint64 {
	mask := uint64(len(sh.slots) - 1)
	for i := mix64(h) >> sh.shift; ; i = (i + 1) & mask {
		if s := sh.slots[i]; s == 0 || sh.names[s-1] == domain {
			return i
		}
	}
}

// record returns domain's record number, or -1 if the shard lacks it.
func (sh *storeShard) record(domain string, h uint64) int {
	return int(sh.slots[sh.find(domain, h)]) - 1
}

// resize replaces the slot table with an empty one of 2^bits slots and
// reinserts every record.
func (sh *storeShard) resize(bits uint) {
	sh.slots, sh.shift = make([]uint32, 1<<bits), 64-bits
	for k, d := range sh.names {
		sh.slots[sh.find(d, fnvName(d))] = uint32(k) + 1
	}
}

// byFirst sorts a shard's columns together by first sequence number.
type byFirst struct{ *storeShard }

func (b byFirst) Len() int           { return len(b.first) }
func (b byFirst) Less(i, j int) bool { return b.first[i] < b.first[j] }
func (b byFirst) Swap(i, j int) {
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.ips[i], b.ips[j] = b.ips[j], b.ips[i]
	b.first[i], b.first[j] = b.first[j], b.first[i]
	b.last[i], b.last[j] = b.last[j], b.last[i]
}

// ensureSorted restores the order-by-first invariant after out-of-order
// sequence numbers landed in the shard (concurrent generation): it sorts
// the columns and rebuilds the slot table over the new record numbers.
func (sh *storeShard) ensureSorted() {
	sh.mu.RLock()
	ok := sh.sorted
	sh.mu.RUnlock()
	if ok {
		return
	}
	sh.mu.Lock()
	if !sh.sorted {
		sort.Sort(byFirst{sh})
		sh.resize(64 - sh.shift)
		sh.sorted = true
	}
	sh.mu.Unlock()
}

// Store is an in-memory authoritative record set: the synthetic equivalent
// of the DNS snapshot the paper obtained from the ActiveDNS project.
//
// The store is sharded by an FNV-1a hash of the domain, with a per-shard
// mutex, so concurrent Add/Lookup traffic from many goroutines scales with
// cores instead of serialising on one lock. Iteration order is still the
// global insertion order (tracked by per-record sequence numbers), and it
// is identical whatever the shard count or write interleaving, so results
// computed over a store are reproducible.
type Store struct {
	shards []storeShard
	// marks[i] is shard i's name mark: one contiguous slice, so the 2,048
	// readings a scan's partition takes walk adjacent memory and no lock.
	marks  []nameMark
	seq    atomic.Uint64 // next insertion sequence number
	length atomic.Int64
}

// NewStore returns an empty store with DefaultShards shards.
func NewStore() *Store { return NewShardedStore(DefaultShards) }

// NewShardedStore returns an empty store with n shards (n <= 0 falls back
// to DefaultShards). The shard count affects only contention, never the
// store's observable contents or iteration order.
func NewShardedStore(n int) *Store { return newSizedStore(n, 0) }

// newSizedStore is NewShardedStore with every shard reserved for its
// share of up to records records: the mean plus four standard deviations
// of a uniform hash's spread, so a shard rarely outgrows its columns and
// slot table while they are filled.
func newSizedStore(n, records int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	per := records / n
	if per > 0 {
		per += 4*int(math.Sqrt(float64(per))) + 8
	}
	s := &Store{shards: make([]storeShard, n), marks: make([]nameMark, n)}
	for i := range s.shards {
		s.shards[i].reserve(per)
		s.shards[i].sorted = true
	}
	return s
}

// ShardIndex is the repository-wide domain-sharding convention: an FNV-1a
// hash of the already-normalised domain, mod the shard count. The store,
// the delta-scan engine's per-shard caches, and the serving layer's shard
// workers (internal/serve) all partition the domain space with this exact
// function, so "the shard a domain lives in" means the same thing in every
// subsystem and state can be handed between them shard by shard.
func ShardIndex(domain string, shards int) int {
	return int(fnvName(domain) % uint64(shards))
}

// fnvName is FNV-1a over a normalised domain: the one hash of the name
// that the shard index, RecordHash and the name checksum all derive from,
// so an insert hashes its name once.
func fnvName(domain string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finaliser.
//
//squat:hot
func mix64(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// recordMix folds an address into a name hash (the second half of
// RecordHash).
//
//squat:hot
func recordMix(h uint64, ip [4]byte) uint64 {
	return mix64(h ^ (uint64(ip[0])<<24 | uint64(ip[1])<<16 | uint64(ip[2])<<8 | uint64(ip[3])))
}

// nameMix finalises a name hash into the per-record term of the name
// checksum, a pure function of the normalised domain. The constant keeps it
// apart from recordMix of any address, which only reaches the low 32 bits.
func nameMix(h uint64) uint64 { return mix64(h ^ 0x9e3779b97f4a7c15) }

// shardOf hashes a normalised domain to its shard (ShardIndex) and returns
// the hash too, for the shard's slot table.
func (s *Store) shardOf(domain string) (*storeShard, uint64) {
	h := fnvName(domain)
	return &s.shards[h%uint64(len(s.shards))], h
}

// Add inserts or overwrites a record. Domains are normalised to lower case
// without a trailing dot. Add is safe for concurrent use with Lookup and
// other Adds.
func (s *Store) Add(domain string, ip [4]byte) {
	s.addAt(s.seq.Add(1)-1, Normalize(domain), ip)
}

// addAt inserts an already-normalised domain under an explicit sequence
// number. Concurrent callers with distinct sequence numbers converge on
// the same store state regardless of arrival order: a record's position is
// its smallest sequence number, its IP the one written with the largest.
func (s *Store) addAt(seq uint64, domain string, ip [4]byte) {
	h := fnvName(domain)
	k := h % uint64(len(s.shards))
	sh, mk := &s.shards[k], &s.marks[k]
	sh.mu.Lock()
	i := sh.find(domain, h)
	if r := int(sh.slots[i]) - 1; r >= 0 {
		if seq < sh.first[r] {
			sh.first[r] = seq
			sh.sorted = false
		}
		if seq >= sh.last[r] {
			sh.last[r] = seq
			if old := sh.ips[r]; old != ip {
				sh.csum += recordMix(h, ip) - recordMix(h, old)
				sh.ips[r] = ip
			}
		}
		sh.mu.Unlock()
		return
	}
	sh.csum += recordMix(h, ip)
	// The mark is written Sum, Next, Len; ShardNameMark reads it the other
	// way round.
	mk.sum.Add(nameMix(h))
	if seq < mk.next.Load() {
		sh.sorted = false
	} else {
		mk.next.Store(seq + 1)
	}
	if (len(sh.names)+1)*maxLoadDen > len(sh.slots)*maxLoadNum {
		sh.resize(64 - sh.shift + 1)
		i = sh.find(domain, h)
	}
	sh.names = append(sh.names, domain)
	sh.ips = append(sh.ips, ip)
	sh.first = append(sh.first, seq)
	sh.last = append(sh.last, seq)
	sh.slots[i] = uint32(len(sh.names))
	mk.len.Store(uint64(len(sh.names)))
	sh.mu.Unlock()
	s.length.Add(1)
}

// RecordHash is the per-record content hash feeding the shard checksums:
// FNV-1a over the normalised domain, mixed with the address through a
// SplitMix64-style finaliser so single-byte IP changes flip about half the
// output bits. It is a pure function of (domain, IP).
func RecordHash(domain string, ip [4]byte) uint64 {
	return recordMix(fnvName(domain), ip)
}

// RecordHashBytes is RecordHash over a domain held as raw bytes (e.g. a
// slice into an mmap'd snapshot arena), avoiding the string conversion.
//
//squat:hot
func RecordHashBytes(domain []byte, ip [4]byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= 1099511628211
	}
	return recordMix(h, ip)
}

// ShardChecksum returns the rolling content checksum of one shard: a
// commutative sum of RecordHash over the shard's current records. Equal
// checksums mean (up to hash collision) equal record sets, independent of
// how and in which order the records were written — the key a delta
// scanner uses to skip unchanged shards between epochs. Reading is O(1):
// the checksum is maintained incrementally by Add.
func (s *Store) ShardChecksum(shard int) uint64 {
	sh := &s.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.csum
}

// ShardMark is one reading of a shard's names.
type ShardMark struct {
	// Sum is the rolling name checksum: the commutative sum of a finalised
	// name hash (nameMix of its FNV-1a) over the shard's records. It moves
	// when a name is inserted and never on a re-point, so equal sums mean
	// (up to hash collision) equal sets of names whatever they resolve to,
	// and anything that is a pure function of the names — a match verdict
	// — is unchanged; ShardChecksum stays the key for what also depends on
	// addresses (snapfmt segment checksums).
	Sum uint64
	// Next is one above the largest sequence number a name entered the
	// shard with, so a TailShard from it visits only names inserted after
	// the reading.
	Next uint64
	// Len is the shard's record count.
	Len int
}

// nameMark is a shard's ShardMark as the store keeps it: the one copy,
// written under the shard's write lock and read with or without it.
type nameMark struct{ sum, next, len atomic.Uint64 }

// load reads the mark Len, then Next, then Sum: the reverse of the order
// addAt writes it in (see ShardNameMark).
func (m *nameMark) load() ShardMark {
	n, next := m.len.Load(), m.next.Load()
	return ShardMark{Sum: m.sum.Load(), Next: next, Len: int(n)}
}

// ShardNameMark reads one shard's mark without a lock. O(1), like
// ShardChecksum, and it never waits on a writer.
//
// A reading is not taken at one instant, but its Next and Len are never
// newer than its Sum. addAt writes a new name's mark as Sum, then Next,
// then Len, and ShardNameMark loads Len, then Next, then Sum; a load that
// observes a store observes everything stored before it, so the Sum loaded
// last already counts the name whose insertion wrote the Next or Len
// loaded first. A scanner that skips a shard on an unmoved Sum therefore
// never adopts a Next past a name its Sum does not account for. A torn
// reading — a Sum newer than its Next — makes the next TailShard from that
// Next visit a name the Sum already counts, which breaks TailShard's
// identity: it can cost a rescan, never a missed name.
func (s *Store) ShardNameMark(shard int) ShardMark {
	return s.marks[shard].load()
}

// TailShard calls fn, in insertion order, with the name of every record of
// one shard whose sequence number is at least from, and returns the sum of
// the visited names' checksum terms with the shard's mark, read under the
// read lock the walk holds, so both are of one instant; from 0 walks the
// whole shard, whose sum is the mark's own, so no name is hashed. The tail
// is found by walking back from the end of the shard's sequence column: it
// is almost always the last few names. fn gets the name copied into a
// pooled buffer, valid only for the call. A store never drops a name and a
// name's sequence number only ever falls, so against an earlier reading
// then, TailShard(then.Next) visits exactly the names added since if and
// only if (up to hash collision) visited == now.Sum-then.Sum. The identity
// fails when a concurrent writer's name arrived with a sequence number
// below then.Next: the walk cannot see it, the checksum can. fn must not
// mutate the store. The error is always nil; it is there for the sources
// that read a file (deltascan.Source).
func (s *Store) TailShard(shard int, from uint64, fn func(name []byte)) (visited uint64, now ShardMark, err error) {
	sh := &s.shards[shard]
	sh.ensureSorted()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	now = s.marks[shard].load()
	start := 0
	if from > 0 && sh.sorted { // unsorted: a writer got in after ensureSorted, so filter it all
		start = len(sh.first)
		for start > 0 && sh.first[start-1] >= from {
			start--
		}
	}
	bp := nameBufs.Get().(*[]byte)
	buf := *bp
	for i := start; i < len(sh.names); i++ {
		if sh.first[i] >= from {
			if from > 0 {
				visited += nameMix(fnvName(sh.names[i]))
			}
			buf = append(buf[:0], sh.names[i]...)
			fn(buf)
		}
	}
	*bp = buf
	nameBufs.Put(bp)
	if from == 0 {
		visited = now.Sum
	}
	return visited, now, nil
}

// nameBufs holds the buffers TailShard copies names into, so that a walk
// allocates none.
var nameBufs = sync.Pool{New: func() any { return new([]byte) }}

// Checksums returns all per-shard checksums. The slice is a copy.
func (s *Store) Checksums() []uint64 {
	out := make([]uint64, len(s.shards))
	for i := range s.shards {
		out[i] = s.ShardChecksum(i)
	}
	return out
}

// Lookup returns the address for a domain.
func (s *Store) Lookup(domain string) ([4]byte, bool) {
	d := Normalize(domain)
	sh, h := s.shardOf(d)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.record(d, h); r >= 0 {
		return sh.ips[r], true
	}
	return [4]byte{}, false
}

// Name returns the store's own copy of a domain's normalised name, so
// state keyed by name can share the store's bytes instead of holding a
// second copy.
func (s *Store) Name(domain string) (string, bool) {
	d := Normalize(domain)
	sh, h := s.shardOf(d)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.record(d, h); r >= 0 {
		return sh.names[r], true
	}
	return "", false
}

// Len returns the number of records.
func (s *Store) Len() int { return int(s.length.Load()) }

// NumShards returns the shard count, the natural unit of work for callers
// that distribute a scan themselves via RangeShard.
func (s *Store) NumShards() int { return len(s.shards) }

// Range calls fn for every record in insertion order, stopping if fn
// returns false. Range holds every shard's read lock for the duration of
// the iteration, so it is safe against concurrent Adds (they block), but
// fn must not itself mutate the store.
func (s *Store) Range(fn func(Record) bool) {
	for i := range s.shards {
		s.shards[i].ensureSorted()
	}
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
		}
	}()
	// K-way merge of the per-shard sequences: a binary min-heap of the
	// non-empty shards keyed by the first sequence number at their head,
	// so a record costs O(log shards), not a scan of every head.
	heads := make([]int, len(s.shards))
	heap := make([]int32, 0, len(s.shards))
	key := func(k int) uint64 { i := heap[k]; return s.shards[i].first[heads[i]] }
	down := func(k int) {
		for {
			c := 2*k + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && key(c+1) < key(c) {
				c++
			}
			if key(k) <= key(c) {
				return
			}
			heap[k], heap[c] = heap[c], heap[k]
			k = c
		}
	}
	for i := range s.shards {
		if len(s.shards[i].names) > 0 {
			heap = append(heap, int32(i))
		}
	}
	for k := len(heap)/2 - 1; k >= 0; k-- {
		down(k)
	}
	for len(heap) > 0 {
		i := heap[0]
		sh := &s.shards[i]
		r := heads[i]
		if !fn(Record{Domain: sh.names[r], IP: sh.ips[r]}) {
			return
		}
		if heads[i]++; heads[i] == len(sh.names) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
}

// RangeShard calls fn for every record of one shard in insertion order,
// stopping if fn returns false. The shard's read lock is held for the
// duration; fn must not mutate the store.
func (s *Store) RangeShard(shard int, fn func(Record) bool) {
	sh := &s.shards[shard]
	sh.ensureSorted()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for i, d := range sh.names {
		if !fn(Record{Domain: d, IP: sh.ips[i]}) {
			return
		}
	}
}

// Domains returns all domain names in insertion order.
func (s *Store) Domains() []string {
	out := make([]string, 0, s.Len())
	s.Range(func(r Record) bool {
		out = append(out, r.Domain)
		return true
	})
	return out
}

// ReadSnapshot parses the text snapshot format: "domain,ip" lines.
func ReadSnapshot(r io.Reader) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		comma := strings.LastIndexByte(text, ',')
		if comma < 0 {
			return nil, fmt.Errorf("dnsx: snapshot line %d: missing comma", line)
		}
		ip, err := parseIPv4(text[comma+1:])
		if err != nil {
			return nil, fmt.Errorf("dnsx: snapshot line %d: %w", line, err)
		}
		s.Add(text[:comma], ip)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseIPv4(s string) ([4]byte, error) {
	var ip [4]byte
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, fmt.Errorf("bad IPv4 %q", s)
	}
	for i, p := range parts {
		v := 0
		if p == "" || len(p) > 3 {
			return ip, fmt.Errorf("bad IPv4 %q", s)
		}
		for _, c := range p {
			if c < '0' || c > '9' {
				return ip, fmt.Errorf("bad IPv4 %q", s)
			}
			v = v*10 + int(c-'0')
		}
		if v > 255 {
			return ip, fmt.Errorf("bad IPv4 %q", s)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// Normalize is the canonical domain form every keyed structure in the
// repository indexes by: lower case, no trailing dot.
func Normalize(domain string) string {
	return strings.ToLower(strings.TrimSuffix(domain, "."))
}
