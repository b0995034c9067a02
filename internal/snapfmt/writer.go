package snapfmt

import (
	"bufio"
	"io"
	"sort"

	"squatphi/internal/dnsx"
)

// Writer accumulates records into per-shard columns and serialises them
// as one snapfmt file. It is the streaming successor of
// dnsx.Store.WriteSnapshot for scan-scale data: records are bucketed by
// the store-compatible shard hash as they arrive, held as flat columns
// (no per-record boxing), and flushed sequentially.
//
// Writer does not deduplicate: a domain added twice is in the file twice
// (dnsx.StreamSnapshot repeats names). Writer is not safe for concurrent
// use.
type Writer struct {
	shards []writerShard
	n      uint64
	sorted bool
}

type writerShard struct {
	offs  []uint32 // arena end offset of each record
	ips   []byte   // packed IPv4, 4 bytes per record
	arena []byte
	csum  uint64
}

// NewWriter builds a writer partitioning records over numShards segments
// (<= 0 selects dnsx.DefaultShards).
func NewWriter(numShards int) *Writer {
	if numShards <= 0 {
		numShards = dnsx.DefaultShards
	}
	return &Writer{shards: make([]writerShard, numShards)}
}

// Add buckets one record. The domain must already be normalized (lower
// case, no trailing dot) — the generator and dnsx.Store both emit that
// form — so the segment checksums stay byte-compatible with
// dnsx.Store.ShardChecksum over the same records.
func (w *Writer) Add(domain string, ip [4]byte) {
	sh := &w.shards[shardOf(domain, len(w.shards))]
	sh.arena = append(sh.arena, domain...)
	sh.offs = append(sh.offs, uint32(len(sh.arena)))
	sh.ips = append(sh.ips, ip[0], ip[1], ip[2], ip[3])
	sh.csum += dnsx.RecordHash(domain, ip)
	w.n++
}

// Len returns the number of records added so far.
func (w *Writer) Len() uint64 { return w.n }

// MarkSorted declares that records were added in an order that leaves
// every segment sorted by domain, setting FlagSorted on the output.
// WriteStore uses it; streaming producers normally cannot.
func (w *Writer) MarkSorted() { w.sorted = true }

// WriteTo serialises the accumulated records in the snapfmt layout.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	for i := range w.shards {
		if uint64(len(w.shards[i].arena)) > maxSegmentArena {
			return 0, corruptf("segment %d arena exceeds 4GB", i)
		}
	}
	bw := bufio.NewWriterSize(dst, 1<<20)
	var written int64
	put := func(b []byte) error {
		n, err := bw.Write(b)
		written += int64(n)
		return err
	}

	var scratch [32]byte
	hdr := scratch[:headerSize]
	copy(hdr, Magic)
	le.PutUint32(hdr[8:], Version)
	var flags uint32
	if w.sorted {
		flags |= FlagSorted
	}
	le.PutUint32(hdr[12:], flags)
	le.PutUint32(hdr[16:], uint32(len(w.shards)))
	le.PutUint32(hdr[20:], 0)
	le.PutUint64(hdr[24:], w.n)
	if err := put(hdr); err != nil {
		return written, err
	}

	// Segment table: offsets are computable up front from the column sizes.
	segOff := align8(headerSize + uint64(len(w.shards))*tableEntSize)
	segOffs := make([]uint64, len(w.shards))
	for i := range w.shards {
		segOffs[i] = segOff
		segOff = align8(segOff + w.segmentSize(i))
	}
	for i := range w.shards {
		sh := &w.shards[i]
		ent := scratch[:tableEntSize]
		le.PutUint64(ent[0:], segOffs[i])
		le.PutUint64(ent[8:], uint64(len(sh.offs)))
		le.PutUint64(ent[16:], uint64(len(sh.arena)))
		le.PutUint64(ent[24:], sh.csum)
		if err := put(ent); err != nil {
			return written, err
		}
	}

	var pad [8]byte
	for i := range w.shards {
		if n := segOffs[i] - uint64(written); n > 0 {
			if err := put(pad[:n]); err != nil {

				return written, err
			}
		}
		sh := &w.shards[i]
		// Offsets column: leading 0, then each record's arena end.
		le.PutUint32(scratch[:4], 0)
		if err := put(scratch[:4]); err != nil {
			return written, err
		}
		for _, o := range sh.offs {
			le.PutUint32(scratch[:4], o)
			if err := put(scratch[:4]); err != nil {
				return written, err
			}
		}
		if err := put(sh.ips); err != nil {
			return written, err
		}
		if err := put(sh.arena); err != nil {
			return written, err
		}
	}
	if n := align8(uint64(written)) - uint64(written); n > 0 {
		if err := put(pad[:n]); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// segmentSize returns the unpadded byte size of segment i.
func (w *Writer) segmentSize(i int) uint64 {
	sh := &w.shards[i]
	return uint64(len(sh.offs)+1)*4 + uint64(len(sh.ips)) + uint64(len(sh.arena))
}

// WriteStore serialises a dnsx.Store in the snapfmt layout, the binary
// successor of Store.WriteSnapshot. Each store shard becomes one segment,
// sorted by domain and carrying the store's shard checksum, so
// ReadStore(Open(file)) rebuilds a store with exactly the iteration order
// of the text round trip (ReadSnapshot of WriteSnapshot: global
// insertion order = sorted by domain).
func WriteStore(dst io.Writer, s *dnsx.Store) (int64, error) {
	w := NewWriter(s.NumShards())
	w.MarkSorted()
	recs := make([]dnsx.Record, 0, 1024)
	for i := 0; i < s.NumShards(); i++ {
		recs = recs[:0]
		s.RangeShard(i, func(r dnsx.Record) bool {
			recs = append(recs, r)
			return true
		})
		sort.Slice(recs, func(a, b int) bool { return recs[a].Domain < recs[b].Domain })
		for _, r := range recs {
			w.Add(r.Domain, r.IP)
		}
	}
	return w.WriteTo(dst)
}
