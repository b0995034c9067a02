package deltascan

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"squatphi/internal/fsx"
	"squatphi/internal/recfile"
	"squatphi/internal/squat"
)

// persistVersion versions the spill layout. It is the last byte of the
// magic, so any other version (or the gzip+JSONL stream version 1 was) is
// refused as recfile.ErrUnsupported. No older version has a reader: the
// state is a cache, and Recover's full scan rebuilds it for less than a
// version-1 load cost.
const persistVersion = 2

var spillMagic = [8]byte{'S', 'Q', 'S', 'P', 'I', 'L', 'L', persistVersion}

// maxSpillShards bounds the shard count a spill may declare.
const maxSpillShards = 1 << 20

// The spill is a recfile: one header block, then one block per shard in
// index order. Every integer is a uvarint, every string uvarint-length-
// prefixed.
//
//	header  fingerprint · epoch · shard count
//	shard   shard index · name checksum
//	        · candidate count · candidates in scan order, each
//	          domain, type, brand name, TLD
//	        · entry count · cache entries sorted by domain, each
//	          domain, epoch stamp, matched (0 or 1), and if matched the
//	          candidate (whose domain is the matcher's spelling of the
//	          name, not always the entry's own)

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendCandidate(b []byte, c squat.Candidate) []byte {
	b = binary.AppendUvarint(appendString(b, c.Domain), uint64(c.Type))
	return appendString(appendString(b, c.Brand.Name), c.Brand.TLD)
}

// Save spills the engine's full epoch state in the format above. A later
// process can Load it and continue incrementally from the same epoch,
// provided the matcher fingerprint still matches; otherwise the loaded
// engine degrades to a full scan on first use, exactly like an in-memory
// config change.
//
// The byte stream is canonical — shards in index order, candidate lists
// in their (deterministic) scan order, cache entries sorted by domain —
// so two Saves of identical state produce identical bytes and spills can
// be content-compared, deduplicated and pinned in golden tests.
func (e *Engine) Save(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var doms []string
	return recfile.Write(w, spillMagic, 1+len(e.shards), func(i int, b []byte) []byte {
		if i == 0 {
			b = binary.AppendUvarint(binary.AppendUvarint(b, e.fp), uint64(e.epoch))
			return binary.AppendUvarint(b, uint64(len(e.shards)))
		}
		sh := e.shards[i-1]
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(i-1)), sh.csum)
		b = binary.AppendUvarint(b, uint64(len(sh.cands)))
		for _, c := range sh.cands {
			b = appendCandidate(b, c)
		}
		// Map iteration order is randomised per range; sort the cache
		// domains so the spill is byte-deterministic.
		doms = doms[:0]
		for dom := range sh.cache {
			doms = append(doms, dom)
		}
		slices.Sort(doms)
		b = binary.AppendUvarint(b, uint64(len(doms)))
		for _, dom := range doms {
			v := sh.cache[dom]
			b = binary.AppendUvarint(appendString(b, dom), uint64(v.epoch))
			if v.ok {
				b = appendCandidate(append(b, 1), v.cand)
			} else {
				b = append(b, 0)
			}
		}
		return b
	})
}

// SaveFile persists the spill to path atomically (temp file in the same
// directory + fsync + rename, see internal/fsx): a crash mid-save leaves
// the previous spill intact instead of a torn file that would cost the
// next start its warm state.
func (e *Engine) SaveFile(path string) error {
	return fsx.WriteFile(path, e.Save)
}

// decoder walks one verified block. s is the block copied once into a
// string, so every string it returns is a substring of that one copy; the
// first malformed field latches err and later reads return zero values.
type decoder struct {
	b   []byte
	s   string
	off int
	err error
}

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = recfile.Corruptf("malformed %s at byte %d of its %d-byte block", what, d.off, len(d.b))
	}
	d.off = len(d.b)
}

// uvarint reads a uvarint no larger than limit.
func (d *decoder) uvarint(what string, limit uint64) uint64 {
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || x > limit {
		d.fail(what)
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) int(what string, limit int) int { return int(d.uvarint(what, uint64(limit))) }

func (d *decoder) string(what string) string {
	n := d.int(what, d.left())
	d.off += n
	return d.s[d.off-n : d.off]
}

func (d *decoder) candidate() squat.Candidate {
	return squat.Candidate{
		Domain: d.string("candidate domain"),
		Type:   squat.Type(d.int("type", math.MaxInt)),
		Brand:  squat.Brand{Name: d.string("brand name"), TLD: d.string("brand tld")},
	}
}

// end reports the latched error, or bytes the layout does not account for.
func (d *decoder) end() error {
	if d.left() != 0 {
		d.fail("trailing data")
	}
	return d.err
}

// Load reconstructs an engine from a Save spill. The engine resumes at
// the saved epoch; its next Scan skips shards and hits the cache exactly
// as the saving process would have. A damaged or incomplete spill is an
// error wrapping recfile.ErrCorrupt, a spill of another version
// recfile.ErrUnsupported; in neither case is an engine returned.
func Load(r io.Reader) (*Engine, error) {
	var e *Engine
	err := recfile.Read(r, spillMagic, func(i, blocks int, blk []byte) error {
		d := &decoder{b: blk, s: string(blk)}
		if i == 0 {
			e = &Engine{fp: d.uvarint("fingerprint", math.MaxUint64)}
			e.epoch = d.int("epoch", math.MaxInt)
			if d.int("shard count", maxSpillShards) != blocks-1 {
				d.fail("shard count") // disagrees with the blocks the file declares
			}
			return d.end()
		}
		// Shard states are appended as their blocks verify, never
		// allocated up front from the header's claim.
		sh, err := decodeShard(d, i-1)
		e.shards = append(e.shards, sh)
		return err
	})
	if err == nil && e == nil {
		err = recfile.Corruptf("no header block")
	}
	if err != nil {
		return nil, fmt.Errorf("deltascan: load: %w", err)
	}
	return e, nil
}

// decodeShard decodes one shard block. Every string of the returned state
// is a substring of the decoder's one copy of the block, so a shard costs
// one string, one map and one candidate slice whatever its entry count.
func decodeShard(d *decoder, index int) (*shardState, error) {
	if d.int("shard index", maxSpillShards) != index {
		d.fail("shard index")
	}
	sh := &shardState{csum: d.uvarint("name checksum", math.MaxUint64)}
	// A count is checked against the bytes left in the block (a candidate
	// takes at least 4, an entry 3) before anything is sized from it.
	if n := d.int("candidate count", d.left()/4); n > 0 {
		sh.cands = make([]squat.Candidate, n)
		for i := range sh.cands {
			sh.cands[i] = d.candidate()
		}
	}
	n := d.int("entry count", d.left()/3)
	sh.cache = make(map[string]verdict, n)
	for prev := ""; n > 0 && d.err == nil; n-- {
		dom := d.string("entry domain")
		if len(sh.cache) > 0 && dom <= prev {
			d.fail("entry order")
		}
		prev = dom
		v := verdict{epoch: d.int("entry epoch", math.MaxInt)}
		if d.int("matched flag", 1) == 1 {
			v.ok, v.cand = true, d.candidate()
		}
		sh.cache[dom] = v
	}
	return sh, d.end()
}

// LoadFile reads a spill written by SaveFile.
func LoadFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Recover is the restart entry point of a long-running process: it loads
// the spill at path if it is present and intact, and otherwise returns a
// fresh engine whose first Scan is a transparent full scan. A missing,
// truncated, corrupt or older-version spill therefore costs one full scan
// — never a startup failure — as a fingerprint mismatch does. recovered
// reports whether saved state was restored; err carries the load failure
// (nil when the file simply does not exist) so callers can log it.
func Recover(path string) (e *Engine, recovered bool, err error) {
	e, err = LoadFile(path)
	if err == nil {
		return e, true, nil
	}
	if os.IsNotExist(err) {
		err = nil
	}
	return NewEngine(), false, err
}
