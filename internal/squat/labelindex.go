package squat

import (
	"bytes"
	"slices"
)

// fastEntry is one entry of the label index: which brand the label is the
// exact name of, the skeleton of, and a generated bits/typo edit of (-1
// where none). One lookup answers the first three classification rules in
// precedence order; only hyphenated labels go on to the combo automaton.
// editType is a Type narrowed to int8, so an entry is 16 bytes, not 24.
type fastEntry struct {
	name     int32
	skel     int32
	edit     int32
	editType int8
}

var noEntry = fastEntry{name: -1, skel: -1, edit: -1}

// labelIndex maps labels to fastEntries in three flat arrays instead of a
// Go map: key i is arena[offs[i]:offs[i+1]] and answers entries[i], and
// slots is an open-addressed table of key numbers + 1 (0 = empty), probed
// linearly from the top bits of the label's labelHash. No per-key string
// header, no bucket overhead, 16-byte entries, and nothing for the garbage
// collector to scan: at the paper's 850 brands, 489K keys, a matcher
// retains 23.5 MB where it held 63.6 MB over a map[string]fastEntry
// (TestUniverseMatcherHeap).
type labelIndex struct {
	arena   []byte
	offs    []uint32 // key end offsets, led by a 0
	entries []fastEntry
	slots   []uint32 // power-of-two length, load ≤ maxLoadNum/maxLoadDen
	shift   uint     // 64 - log2(len(slots))
}

// A table grows (doubles) before its load passes maxLoadNum/maxLoadDen.
// NewMatcher sizes its table so that this never happens: its key bound
// times 1.5, rounded up to a power of two, keeps the load ≤ 2/3.
const maxLoadNum, maxLoadDen = 3, 4

// newLabelIndex returns an empty index with slots for at least 1.5×n keys
// (and never fewer than 8) and its key arrays presized for n keys of
// arenaBytes bytes in all.
func newLabelIndex(n, arenaBytes int) *labelIndex {
	bits := uint(3)
	for 1<<bits < n+n/2 {
		bits++
	}
	x := &labelIndex{
		arena:   make([]byte, 0, arenaBytes),
		offs:    make([]uint32, 1, n+1),
		entries: make([]fastEntry, 0, n),
	}
	x.resize(bits)
	return x
}

// key returns key i, a view into the arena.
//
//squat:hot
func (x *labelIndex) key(i uint32) []byte { return x.arena[x.offs[i]:x.offs[i+1]] }

// find returns the slot holding label, whose labelHash is h, or the empty
// slot where it would be inserted. A label that is not a key costs at most
// the longest run of occupied slots (TestLabelIndexProbeLength bounds it).
//
//squat:hot
func (x *labelIndex) find(label []byte, h uint64) uint64 {
	mask := uint64(len(x.slots) - 1)
	for i := h >> x.shift; ; i = (i + 1) & mask {
		if s := x.slots[i]; s == 0 || bytes.Equal(x.key(s-1), label) {
			return i
		}
	}
}

// upsert returns a pointer to label's entry, first inserting label with
// noEntry when it is not yet a key. The label is staged at the arena's
// tail and hashed there, so it may be a buffer the caller reuses; a label
// already present is dropped again. The pointer is valid until the next
// upsert.
func (x *labelIndex) upsert(label []byte) *fastEntry {
	start := len(x.arena)
	x.arena = append(x.arena, label...)
	k := x.arena[start:]
	h := labelHash(k)
	i := x.find(k, h)
	if s := x.slots[i]; s != 0 {
		x.arena = x.arena[:start]
		return &x.entries[s-1]
	}
	if (len(x.entries)+1)*maxLoadDen > len(x.slots)*maxLoadNum {
		x.resize(64 - x.shift + 1)
		i = x.find(k, h)
	}
	x.offs = append(x.offs, uint32(len(x.arena)))
	x.entries = append(x.entries, noEntry)
	x.slots[i] = uint32(len(x.entries))
	return &x.entries[len(x.entries)-1]
}

// resize replaces the slot table with an empty one of 2^bits slots and
// reinserts every key.
func (x *labelIndex) resize(bits uint) {
	x.slots, x.shift = make([]uint32, 1<<bits), 64-bits
	for k := range x.entries {
		key := x.key(uint32(k))
		x.slots[x.find(key, labelHash(key))] = uint32(k) + 1
	}
}

// trim gives the key arrays back the spare capacity the build left in
// them: they were sized for bounds ~10 % (keys) and ~60 % (key bytes)
// above what the paper's universe fills.
func (x *labelIndex) trim() {
	x.arena, x.offs, x.entries = slices.Clone(x.arena), slices.Clone(x.offs), slices.Clone(x.entries)
}
