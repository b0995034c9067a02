package dnsx

import (
	"bufio"
	"fmt"
	"io"
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

// entry is one stored record plus the bookkeeping that keeps sharded
// iteration deterministic: firstSeq fixes the record's position in global
// insertion order, lastSeq arbitrates overwrites (the highest sequence
// number's IP wins, reproducing serial last-write-wins semantics no matter
// in which order concurrent writers actually reach the shard).
type entry struct {
	domain   string
	ip       [4]byte
	firstSeq uint64
	lastSeq  uint64
}

// storeShard is one lock domain of the store.
type storeShard struct {
	mu      sync.RWMutex
	records map[string]*entry
	order   []*entry // insertion entries; sorted by firstSeq when sorted
	sorted  bool
	// csum is the shard's rolling content checksum: the wrapping sum of
	// RecordHash over the shard's current records. It is maintained
	// incrementally on every write, so reading it is O(1), and it depends
	// only on the shard's (domain, IP) set — never on insertion order,
	// sequence numbers, or write interleaving. Two shards holding the same
	// records report the same checksum, which is what lets a delta scanner
	// skip unchanged shards between snapshot epochs.
	csum uint64
	// nsum is the same rolling sum over the shard's domain names alone
	// (nameMix of each name's FNV-1a): it moves when a name is inserted and
	// never on a re-point, so it is the key for state that is a function
	// of names only — the delta scanner's verdicts.
	nsum uint64
	// next is one above the largest sequence number a name entered the
	// shard with: the shard's mark (ShardMark.Next).
	next uint64
}

// ensureSorted restores the order-by-firstSeq invariant after out-of-order
// sequence numbers landed in the shard (concurrent generation).
func (sh *storeShard) ensureSorted() {
	sh.mu.RLock()
	ok := sh.sorted
	sh.mu.RUnlock()
	if ok {
		return
	}
	sh.mu.Lock()
	if !sh.sorted {
		sort.Slice(sh.order, func(i, j int) bool { return sh.order[i].firstSeq < sh.order[j].firstSeq })
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
	seq    atomic.Uint64 // next insertion sequence number
	length atomic.Int64
}

// NewStore returns an empty store with DefaultShards shards.
func NewStore() *Store { return NewShardedStore(DefaultShards) }

// NewShardedStore returns an empty store with n shards (n <= 0 falls back
// to DefaultShards). The shard count affects only contention, never the
// store's observable contents or iteration order.
func NewShardedStore(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Store{shards: make([]storeShard, n)}
	for i := range s.shards {
		s.shards[i].records = make(map[string]*entry)
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

// shardOf hashes a normalised domain to its shard (ShardIndex).
func (s *Store) shardOf(domain string) *storeShard {
	return &s.shards[ShardIndex(domain, len(s.shards))]
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
	sh := &s.shards[h%uint64(len(s.shards))]
	sh.mu.Lock()
	if e := sh.records[domain]; e != nil {
		if seq < e.firstSeq {
			e.firstSeq = seq
			sh.sorted = false
		}
		if seq >= e.lastSeq {
			e.lastSeq = seq
			if e.ip != ip {
				sh.csum += recordMix(h, ip) - recordMix(h, e.ip)
				e.ip = ip
			}
		}
		sh.mu.Unlock()
		return
	}
	sh.csum += recordMix(h, ip)
	sh.nsum += nameMix(h)
	e := &entry{domain: domain, ip: ip, firstSeq: seq, lastSeq: seq}
	sh.records[domain] = e
	if seq < sh.next {
		sh.sorted = false
	} else {
		sh.next = seq + 1
	}
	sh.order = append(sh.order, e)
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

// ShardMark is one reading of a shard's names, taken under its lock.
type ShardMark struct {
	// Sum is the rolling name checksum: the commutative sum of a finalised
	// name hash over the shard's records. Equal sums mean (up to hash
	// collision) equal sets of names whatever they resolve to, so anything
	// that is a pure function of the names — a match verdict — is
	// unchanged; ShardChecksum stays the key for what also depends on
	// addresses (snapfmt segment checksums).
	Sum uint64
	// Next is above the sequence number of every name in the shard, so a
	// TailShard from it visits only names inserted after the reading.
	Next uint64
	// Len is the shard's record count.
	Len int
}

// ShardNameMark reads one shard's name checksum and mark together. O(1),
// like ShardChecksum.
func (s *Store) ShardNameMark(shard int) ShardMark {
	sh := &s.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return ShardMark{Sum: sh.nsum, Next: sh.next, Len: len(sh.order)}
}

// TailShard calls fn, in insertion order, with the name of every record of
// one shard whose sequence number is at least from, and returns the sum of
// the visited names' checksum terms with the shard's mark, both read under
// the one read lock the walk holds; from 0 walks the whole shard, whose
// sum is the mark's own, so no name is hashed. fn gets the name copied
// into a buffer the walk reuses, valid only for the call. A store never
// drops a name and a name's sequence number only ever falls, so against an
// earlier reading then, TailShard(then.Next) visits exactly the names added
// since if and only if (up to hash collision) visited == now.Sum-then.Sum.
// The identity fails when a concurrent writer's name arrived with a
// sequence number below then.Next: the walk cannot see it, the checksum
// can. fn must not mutate the store. The error is always nil; it is there
// for the sources that read a file (deltascan.Source).
func (s *Store) TailShard(shard int, from uint64, fn func(name []byte)) (visited uint64, now ShardMark, err error) {
	sh := &s.shards[shard]
	sh.ensureSorted()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	now = ShardMark{Sum: sh.nsum, Next: sh.next, Len: len(sh.order)}
	order := sh.order
	if sh.sorted { // else a writer got in after ensureSorted: filter it all
		order = order[sort.Search(len(order), func(i int) bool { return order[i].firstSeq >= from }):]
	}
	buf := make([]byte, 0, 64)
	for _, e := range order {
		if e.firstSeq >= from {
			if from > 0 {
				visited += nameMix(fnvName(e.domain))
			}
			buf = append(buf[:0], e.domain...)
			fn(buf)
		}
	}
	if from == 0 {
		visited = now.Sum
	}
	return visited, now, nil
}

// Checksums returns all per-shard checksums. The slice is a copy.
func (s *Store) Checksums() []uint64 {
	out := make([]uint64, len(s.shards))
	for i := range s.shards {
		out[i] = s.ShardChecksum(i)
	}
	return out
}

// ShardOf returns the shard index a domain maps to, so callers that keep
// per-shard state of their own (e.g. a delta-scan cache) can mirror the
// store's partitioning exactly.
func (s *Store) ShardOf(domain string) int {
	return ShardIndex(Normalize(domain), len(s.shards))
}

// Lookup returns the address for a domain.
func (s *Store) Lookup(domain string) ([4]byte, bool) {
	d := Normalize(domain)
	sh := s.shardOf(d)
	sh.mu.RLock()
	e := sh.records[d]
	if e == nil {
		sh.mu.RUnlock()
		return [4]byte{}, false
	}
	ip := e.ip
	sh.mu.RUnlock()
	return ip, true
}

// Name returns the store's own copy of a domain's normalised name, so
// state keyed by name can share the store's bytes instead of holding a
// second copy.
func (s *Store) Name(domain string) (string, bool) {
	d := Normalize(domain)
	sh := s.shardOf(d)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.records[d]; e != nil {
		return e.domain, true
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
	// K-way merge of the per-shard sequences; with a few dozen shards a
	// linear min-scan per record beats heap bookkeeping.
	heads := make([]int, len(s.shards))
	for {
		best := -1
		var bestSeq uint64
		for i := range s.shards {
			if heads[i] >= len(s.shards[i].order) {
				continue
			}
			if e := s.shards[i].order[heads[i]]; best == -1 || e.firstSeq < bestSeq {
				best, bestSeq = i, e.firstSeq
			}
		}
		if best == -1 {
			return
		}
		e := s.shards[best].order[heads[best]]
		heads[best]++
		if !fn(Record{Domain: e.domain, IP: e.ip}) {
			return
		}
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
	for _, e := range sh.order {
		if !fn(Record{Domain: e.domain, IP: e.ip}) {
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

// WriteSnapshot serialises the store as "domain,ip" lines sorted by domain,
// the on-disk snapshot format shared with ReadSnapshot. Records are copied
// out under one read-lock pass per shard (no per-record lock round trips).
func (s *Store) WriteSnapshot(w io.Writer) error {
	recs := make([]Record, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.order {
			recs = append(recs, Record{Domain: e.domain, IP: e.ip})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Domain < recs[j].Domain })
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := fmt.Fprintf(bw, "%s,%d.%d.%d.%d\n", r.Domain, r.IP[0], r.IP[1], r.IP[2], r.IP[3]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot parses the snapshot format produced by WriteSnapshot.
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
