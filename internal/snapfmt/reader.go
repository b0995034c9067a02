package snapfmt

import (
	"os"

	"squatphi/internal/dnsx"
)

// Snapshot is a read-only view over one snapfmt file. Open maps the file
// into memory (mmap on linux, a plain read elsewhere), so constructing a
// Snapshot is O(header + segment table) regardless of record count: the
// columns are faulted in lazily by the kernel as the scan touches them.
//
// All accessors are safe for concurrent use; the underlying data is
// immutable until Close.
type Snapshot struct {
	data  []byte
	close func() error
	flags uint32
	n     uint64
	segs  []segmentView
}

// segmentView holds the decoded table entry plus bounds-checked column
// subslices of one segment.
type segmentView struct {
	count    int
	checksum uint64
	offsets  []byte // (count+1) × uint32, little-endian
	ips      []byte // count × 4
	arena    []byte
}

// Open maps the snapshot file at path. The returned Snapshot must be
// Closed to release the mapping.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, closer, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, err
	}
	s, err := OpenBytes(data)
	if err != nil {
		closer()
		return nil, err
	}
	s.close = closer
	return s, nil
}

// OpenBytes parses and structurally validates a snapshot held in memory.
// Validation covers everything reachable without touching the columns —
// magic, version, table bounds, column extents, record totals — so a
// truncated or corrupt file errors here or in Visit, never panics.
func OpenBytes(data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, corruptf("file shorter than header: %d bytes", len(data))
	}
	if string(data[:8]) != Magic {
		return nil, corruptf("bad magic %q", data[:8])
	}
	if v := le.Uint32(data[8:]); v != Version {
		return nil, corruptf("unsupported version %d", v)
	}
	flags := le.Uint32(data[12:])
	numShards := le.Uint32(data[16:])
	numRecords := le.Uint64(data[24:])
	if numShards == 0 || numShards > 1<<20 {
		return nil, corruptf("implausible shard count %d", numShards)
	}
	tableEnd := headerSize + uint64(numShards)*tableEntSize
	if tableEnd > uint64(len(data)) {
		return nil, corruptf("segment table extends past EOF")
	}
	s := &Snapshot{data: data, flags: flags, n: numRecords, segs: make([]segmentView, numShards)}
	var total uint64
	for i := range s.segs {
		ent := data[headerSize+uint64(i)*tableEntSize:]
		off := le.Uint64(ent[0:])
		count := le.Uint64(ent[8:])
		arenaLen := le.Uint64(ent[16:])
		if count > uint64(len(data))/4 {
			return nil, corruptf("segment %d: implausible record count %d", i, count)
		}
		if arenaLen > maxSegmentArena {
			return nil, corruptf("segment %d: arena length %d exceeds offset range", i, arenaLen)
		}
		if off%8 != 0 {
			return nil, corruptf("segment %d: misaligned offset %d", i, off)
		}
		offsLen := (count + 1) * 4
		ipsLen := count * 4
		end := off + offsLen + ipsLen + arenaLen
		if off < tableEnd || end > uint64(len(data)) || end < off {
			return nil, corruptf("segment %d: extent [%d, %d) out of file bounds", i, off, end)
		}
		sv := &s.segs[i]
		sv.count = int(count)
		sv.checksum = le.Uint64(ent[24:])
		sv.offsets = data[off : off+offsLen]
		sv.ips = data[off+offsLen : off+offsLen+ipsLen]
		sv.arena = data[off+offsLen+ipsLen : end]
		if first := le.Uint32(sv.offsets); first != 0 {
			return nil, corruptf("segment %d: offsets column starts at %d, want 0", i, first)
		}
		if last := le.Uint32(sv.offsets[offsLen-4:]); uint64(last) != arenaLen {
			return nil, corruptf("segment %d: offsets column ends at %d, want arena length %d", i, last, arenaLen)
		}
		total += count
	}
	if total != numRecords {
		return nil, corruptf("record total %d != header numRecords %d", total, numRecords)
	}
	return s, nil
}

// Close releases the file mapping. The Snapshot and every domain slice
// handed out by Visit are invalid afterwards.
func (s *Snapshot) Close() error {
	if s.close != nil {
		err := s.close()
		s.close = nil
		return err
	}
	return nil
}

// Len returns the record count.
func (s *Snapshot) Len() uint64 { return s.n }

// NumShards returns the segment count.
func (s *Snapshot) NumShards() int { return len(s.segs) }

// Sorted reports whether every segment is sorted by domain (FlagSorted).
func (s *Snapshot) Sorted() bool { return s.flags&FlagSorted != 0 }

// VisitShard calls fn for every record of one segment, in segment order,
// stopping early if fn returns false. The domain slice aliases the file
// mapping: it is valid only for the duration of the call and must not be
// written to. The offsets column is bounds-checked record by record, so a
// corrupt column yields an error, never a panic or an out-of-range read.
//
//squat:hot
func (s *Snapshot) VisitShard(shard int, fn func(domain []byte, ip [4]byte) bool) error {
	sv := &s.segs[shard]
	offs, ips, arena := sv.offsets, sv.ips, sv.arena
	prev := uint32(0)
	for i := 0; i < sv.count; i++ {
		next := le.Uint32(offs[(i+1)*4:])
		if next < prev || next > uint32(len(arena)) {
			return corruptf("segment %d: record %d offsets [%d, %d) not monotonic in arena of %d", shard, i, prev, next, len(arena))
		}
		ip := [4]byte{ips[i*4], ips[i*4+1], ips[i*4+2], ips[i*4+3]}
		if !fn(arena[prev:next], ip) {
			return nil
		}
		prev = next
	}
	return nil
}

// VisitShardDomains is VisitShard without the IP column: fn sees only the
// domain of each record, and the scan never touches (or faults in) the
// packed IPv4 column. It is the matcher-scan fast path — classification
// ignores IPs, and skipping the per-record 4-byte load is measurable at
// paper scale. Aliasing and error contract as VisitShard.
//
//squat:hot
func (s *Snapshot) VisitShardDomains(shard int, fn func(domain []byte) bool) error {
	sv := &s.segs[shard]
	offs, arena := sv.offsets, sv.arena
	prev := uint32(0)
	for i := 0; i < sv.count; i++ {
		next := le.Uint32(offs[(i+1)*4:])
		if next < prev || next > uint32(len(arena)) {
			return corruptf("segment %d: record %d offsets [%d, %d) not monotonic in arena of %d", shard, i, prev, next, len(arena))
		}
		if !fn(arena[prev:next]) {
			return nil
		}
		prev = next
	}
	return nil
}

// ShardNameMark reads one segment's mark, which never moves: its checksum,
// and its record count as both Next and Len. Equal segment checksums mean
// equal records, hence equal names, so a scan engine may skip a segment
// whose checksum it has seen (deltascan.Source).
//
//squat:hot
func (s *Snapshot) ShardNameMark(shard int) dnsx.ShardMark {
	sv := &s.segs[shard]
	return dnsx.ShardMark{Sum: sv.checksum, Next: uint64(sv.count), Len: sv.count}
}

// TailShard is the scan engine's walk of one segment (deltascan.Source):
// it calls fn with the domain of every record in segment order and returns
// the segment's checksum as the visited sum, with its mark. A snapshot has
// no tail: from at or past the mark visits nothing, and any other from
// walks the whole segment, whose sum is the checksum without a record
// being hashed. Aliasing and error contract as VisitShard.
//
//squat:hot
func (s *Snapshot) TailShard(shard int, from uint64, fn func(domain []byte)) (visited uint64, now dnsx.ShardMark, err error) {
	if now = s.ShardNameMark(shard); from >= now.Next {
		return 0, now, nil
	}
	sv := &s.segs[shard]
	offs, arena := sv.offsets, sv.arena
	prev := uint32(0)
	for i := 0; i < sv.count; i++ {
		next := le.Uint32(offs[(i+1)*4:])
		if next < prev || next > uint32(len(arena)) {
			return 0, now, corruptf("segment %d: record %d offsets [%d, %d) not monotonic in arena of %d", shard, i, prev, next, len(arena))
		}
		fn(arena[prev:next])
		prev = next
	}
	return now.Sum, now, nil
}

// Visit calls fn for every record, segment by segment. See VisitShard for
// the aliasing and error contract.
func (s *Snapshot) Visit(fn func(domain []byte, ip [4]byte) bool) error {
	for i := range s.segs {
		stopped := false
		err := s.VisitShard(i, func(domain []byte, ip [4]byte) bool {
			if !fn(domain, ip) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// VerifyShard recomputes one segment's commutative record checksum and
// compares it to the header. It reads the full segment, so verifying all
// shards costs one pass over the file.
func (s *Snapshot) VerifyShard(shard int) error {
	var sum uint64
	err := s.VisitShard(shard, func(domain []byte, ip [4]byte) bool {
		sum += dnsx.RecordHashBytes(domain, ip)
		return true
	})
	if err != nil {
		return err
	}
	if sum != s.segs[shard].checksum {
		return corruptf("segment %d: checksum %#x, header says %#x", shard, sum, s.segs[shard].checksum)
	}
	return nil
}

// ReadStore rebuilds a dnsx.Store from a sorted snapshot, inserting
// records in globally domain-sorted order via a k-way merge over the
// segments — exactly the insertion order dnsx.ReadSnapshot gives a
// domain-sorted text snapshot. Unsorted snapshots are
// scan-only and error here.
func (s *Snapshot) ReadStore() (*dnsx.Store, error) {
	if !s.Sorted() {
		return nil, corruptf("snapshot is not sorted; scan it in place instead")
	}
	st := dnsx.NewShardedStore(len(s.segs))
	type cursor struct {
		domain []byte
		ip     [4]byte
		idx    int
		live   bool
	}
	heads := make([]cursor, len(s.segs))
	advance := func(i int) error {
		c := &heads[i]
		sv := &s.segs[i]
		if c.idx >= sv.count {
			c.live = false
			return nil
		}
		c.live = true
		prev := le.Uint32(sv.offsets[c.idx*4:])
		next := le.Uint32(sv.offsets[(c.idx+1)*4:])
		if next < prev || next > uint32(len(sv.arena)) {
			return corruptf("segment %d: record %d offsets [%d, %d) not monotonic", i, c.idx, prev, next)
		}
		c.domain = sv.arena[prev:next]
		copy(c.ip[:], sv.ips[c.idx*4:c.idx*4+4])
		c.idx++
		return nil
	}
	for i := range heads {
		if err := advance(i); err != nil {
			return nil, err
		}
	}
	for {
		best := -1
		for i := range heads {
			if !heads[i].live {
				continue
			}
			if best == -1 || string(heads[i].domain) < string(heads[best].domain) {
				best = i
			}
		}
		if best == -1 {
			return st, nil
		}
		st.Add(string(heads[best].domain), heads[best].ip)
		if err := advance(best); err != nil {
			return nil, err
		}
	}
}
