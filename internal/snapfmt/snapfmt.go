// Package snapfmt implements the binary DNS-snapshot format: a flat,
// versioned, little-endian columnar layout designed to be mmap'd and
// scanned in place at paper scale (224.8M records) without parsing a
// single line of text.
//
// The text snapshot (dnsx.ReadSnapshot's "domain,ip" lines) is the
// interchange format; this package is the scan format. Cold start on a
// text snapshot is a full parse — every domain re-allocated, every IP
// re-parsed. Cold start here is a file map: the scanner walks domain
// bytes directly out of the page cache and never materializes a string
// on the miss path.
//
// # Layout
//
// All integers are little-endian. The file is:
//
//	header (32 bytes)
//	  magic      [8]byte  "sqphsnp1"
//	  version    uint32   (currently 1)
//	  flags      uint32   (bit 0: every segment is sorted by domain)
//	  numShards  uint32
//	  reserved   uint32   (zero)
//	  numRecords uint64
//	segment table (numShards × 32 bytes)
//	  offset     uint64   absolute file offset of the segment, 8-aligned
//	  count      uint64   records in the segment
//	  arenaLen   uint64   domain-arena bytes in the segment
//	  checksum   uint64   commutative RecordHash sum over the segment's
//	                      records — byte-compatible with
//	                      dnsx.Store.ShardChecksum, so a delta scanner
//	                      can diff snapshots from headers alone
//	segments (each 8-aligned, zero-padded)
//	  offsets    (count+1) × uint32   domain-arena offsets; offsets[0] = 0,
//	                                  offsets[count] = arenaLen
//	  ips        count × 4 bytes      packed IPv4 addresses
//	  arena      arenaLen bytes       concatenated domain names
//
// Records are partitioned into segments by the same FNV-1a domain hash
// dnsx.Store shards by, so segment i of a snapshot written from a store
// holds exactly the records of store shard i and carries its checksum.
package snapfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies a snapfmt file; the trailing digit is the major
// layout generation (bump on incompatible relayout, alongside Version).
const Magic = "sqphsnp1"

// Version is the current format version.
const Version = 1

const (
	headerSize   = 32
	tableEntSize = 32

	// FlagSorted marks a file whose every segment is sorted by domain.
	// Only sorted files can be rebuilt into a dnsx.Store with the exact
	// text-round-trip iteration order; unsorted files are scan-only.
	FlagSorted = 1 << 0

	// maxSegmentArena bounds one segment's domain arena: offsets are
	// uint32. At the paper's 224.8M records over 32 shards a segment
	// arena is ~170MB, comfortably under the 4GB ceiling.
	maxSegmentArena = 1<<32 - 1
)

// ErrCorrupt is wrapped by every structural-validation failure of a
// snapshot file, from a bad magic to a non-monotonic offsets column.
var ErrCorrupt = errors.New("snapfmt: corrupt snapshot")

// corruptf is error-path only: reaching it means the scan is already
// aborting, so its fmt allocations never price into the hot loop.
//
//squat:cold
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// shardOf replicates dnsx.Store's FNV-1a domain-to-shard mapping over an
// already-normalized domain.
func shardOf(domain string, numShards int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= 1099511628211
	}
	return int(h % uint64(numShards))
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

var le = binary.LittleEndian
