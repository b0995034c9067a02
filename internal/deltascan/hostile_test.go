package deltascan

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/recfile"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// spillFixture is a scanned engine over a sharded store, its spill, and
// the cold answer a degraded restart must reproduce.
type spillFixture struct {
	store *dnsx.Store
	m     *squat.Matcher
	spill []byte
	want  []squat.Candidate
}

func newSpillFixture(t testing.TB, seed uint64, records, shards int) spillFixture {
	t.Helper()
	rng := simrand.New(seed)
	model := seedModel(rng, records)
	fx := spillFixture{store: dnsx.NewShardedStore(shards), m: testMatcher()}
	for _, d := range sortedDomains(model) {
		fx.store.Add(d, model[d])
	}
	e := NewEngine()
	fx.want = e.Scan(fx.store, fx.m, 2)
	// A second epoch, so the candidates carry more than one epoch stamp.
	fx.store.Add("paypal-second-epoch.com", [4]byte{2, 2, 2, 2})
	fx.want = e.Scan(fx.store, fx.m, 2)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fx.spill = buf.Bytes()
	return fx
}

// blockEnds parses the framing of a valid spill: the offset just past the
// prologue, then just past each block.
func blockEnds(t testing.TB, spill []byte) []int {
	t.Helper()
	ends := []int{16}
	for off := 16; off < len(spill); {
		off += 8 + int(binary.LittleEndian.Uint32(spill[off:]))
		ends = append(ends, off)
	}
	if ends[len(ends)-1] != len(spill) {
		t.Fatalf("spill framing does not add up: last block ends at %d of %d", ends[len(ends)-1], len(spill))
	}
	return ends
}

// mutant is one damaged spill and the error class Load owes it.
type mutant struct {
	name string
	data []byte
	want error
}

// hostileMutants is the sweep: truncation at every offset of the magic,
// prologue and header block and at every block boundary ±1; every bit of
// the magic, prologue and header block flipped; one seeded bit flipped in
// every shard block.
func hostileMutants(t testing.TB, spill []byte, seed uint64) []mutant {
	ends := blockEnds(t, spill)
	headerEnd := ends[1]
	var out []mutant
	cut := map[int]bool{}
	for n := 0; n <= headerEnd; n++ {
		cut[n] = true
	}
	for _, end := range ends {
		for _, n := range []int{end - 1, end, end + 1} {
			cut[n] = true
		}
	}
	for n := range cut {
		if n >= 0 && n < len(spill) {
			out = append(out, mutant{fmt.Sprintf("truncated at %d", n), spill[:n], recfile.ErrCorrupt})
		}
	}
	flip := func(bit int, want error) {
		data := bytes.Clone(spill)
		data[bit/8] ^= 1 << (bit % 8)
		out = append(out, mutant{fmt.Sprintf("bit %d of byte %d flipped", bit%8, bit/8), data, want})
	}
	for bit := 0; bit < headerEnd*8; bit++ {
		if bit < 64 {
			flip(bit, recfile.ErrUnsupported)
		} else {
			flip(bit, recfile.ErrCorrupt)
		}
	}
	rng := simrand.New(seed)
	for i := 1; i+1 < len(ends); i++ {
		flip(ends[i]*8+rng.Intn((ends[i+1]-ends[i])*8), recfile.ErrCorrupt)
	}
	return out
}

// TestLoadHostileSweep: every mutant is refused with its typed error and
// no engine, never a panic; Recover on it hands back a fresh engine whose
// first scan is a full scan equal to the cold reference.
func TestLoadHostileSweep(t *testing.T) {
	fx := newSpillFixture(t, 41, 5000, 64)
	if _, err := Load(bytes.NewReader(fx.spill)); err != nil {
		t.Fatalf("intact spill: %v", err)
	}
	mutants := hostileMutants(t, fx.spill, 43)
	if len(mutants) < 64+3*64 {
		t.Fatalf("sweep built only %d mutants", len(mutants))
	}
	path := filepath.Join(t.TempDir(), "squatd.spill")
	recoverEvery := 1
	if testing.Short() {
		recoverEvery = 16
	}
	for i, mu := range mutants {
		e, err := Load(bytes.NewReader(mu.data))
		if e != nil || !errors.Is(err, mu.want) {
			t.Fatalf("%s: Load = (engine %t, %v), want no engine and %v", mu.name, e != nil, err, mu.want)
		}
		if i%recoverEvery != 0 {
			continue
		}
		if err := os.WriteFile(path, mu.data, 0o644); err != nil {
			t.Fatal(err)
		}
		assertRecoverDegrades(t, mu.name, path, fx)
	}
}

// assertRecoverDegrades checks the restart contract on a spill Load
// refuses: Recover reports the failure, returns a fresh engine, and that
// engine's first scan is a full scan with the cold answer.
func assertRecoverDegrades(t *testing.T, name, path string, fx spillFixture) {
	t.Helper()
	rec, recovered, err := Recover(path)
	if recovered || err == nil || rec == nil || rec.Epoch() != 0 {
		t.Fatalf("%s: Recover = (recovered %t, %v), want a fresh engine and the load error", name, recovered, err)
	}
	got := rec.Scan(fx.store, fx.m, 2)
	if !rec.LastStats().FullScan || !reflect.DeepEqual(got, fx.want) {
		t.Fatalf("%s: first scan after Recover: FullScan %t, %d candidates, want a full scan with %d",
			name, rec.LastStats().FullScan, len(got), len(fx.want))
	}
}

// TestLoadRefusesVersion1: a spill in an old layout — gzip + JSON lines
// (version 1), or version 2's verdict-cache blocks — is an unsupported
// format, not a crash and not a guess, and a restart on it degrades to one
// full scan like any other unusable file.
func TestLoadRefusesVersion1(t *testing.T) {
	fx := newSpillFixture(t, 47, 300, 4)
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	enc := json.NewEncoder(gz)
	for _, line := range []any{
		map[string]any{"kind": "deltascan-cache", "version": 1, "fingerprint": fx.m.Fingerprint(), "epoch": 2, "shards": 4},
		map[string]any{"kind": "shard", "shard": 0, "csum": 1234, "valid": true, "seen": 1},
		map[string]any{"kind": "entry", "shard": 0, "domain": "paypa1.com", "match": true, "type": 1, "brand": "paypal", "tld": "com", "epoch": 1},
	} {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := Load(bytes.NewReader(buf.Bytes()))
	if e != nil || !errors.Is(err, recfile.ErrUnsupported) {
		t.Fatalf("Load of a version-1 spill = (engine %t, %v), want recfile.ErrUnsupported", e != nil, err)
	}
	path := filepath.Join(t.TempDir(), "squatd.spill.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	assertRecoverDegrades(t, "version-1 spill", path, fx)

	// Version 2: the same framing, one cache entry per record.
	v2 := spillMagic
	v2[7] = 2
	entry := append(binary.AppendUvarint(appendString(nil, "paypa1.com"), 1), 0)
	shard := append(binary.AppendUvarint(rawShard(0, 0), 1), entry...)
	old := rawSpillAs(v2, 2, rawHeader(1), shard)
	if e, err := Load(bytes.NewReader(old)); e != nil || !errors.Is(err, recfile.ErrUnsupported) {
		t.Fatalf("Load of a version-2 spill = (engine %t, %v), want recfile.ErrUnsupported", e != nil, err)
	}
	path = filepath.Join(t.TempDir(), "squatd.spill")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	assertRecoverDegrades(t, "version-2 spill", path, fx)
}

// rawSpill assembles a spill by hand from the documented layout, with
// correct checksums, so a test can make the verified numbers lie.
func rawSpill(declaredBlocks uint32, payloads ...[]byte) []byte {
	return rawSpillAs(spillMagic, declaredBlocks, payloads...)
}

// rawSpillAs is rawSpill under another magic.
func rawSpillAs(magic [8]byte, declaredBlocks uint32, payloads ...[]byte) []byte {
	tab := crc32.MakeTable(crc32.Castagnoli)
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, declaredBlocks)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, tab))
	for _, p := range payloads {
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
		crc := crc32.Update(crc32.Checksum(hdr, tab), tab, p)
		b = append(binary.LittleEndian.AppendUint32(append(b, hdr...), crc), p...)
	}
	return b
}

func rawHeader(shards uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 0xfeed), 3), shards)
}

// rawShard is a shard block up to and including the candidate count;
// callers append the candidates.
func rawShard(index, cands uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, index), 0xabcdef), cands)
}

// rawCand appends one candidate: domain, type, brand name, TLD, epoch.
func rawCand(b []byte, domain string, epoch uint64) []byte {
	b = binary.AppendUvarint(appendString(b, domain), uint64(squat.Typo))
	return binary.AppendUvarint(appendString(appendString(b, "paypal"), "com"), epoch)
}

// allocatedBytes is the heap allocated by one call of f.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadSizesNothingFromUnverifiedNumbers pins the reader's discipline
// on spills whose checksums are all valid and whose numbers lie: each is
// refused as corrupt, and refusing it allocates almost nothing — no shard
// state from the header's claim, no slice from a candidate count, no
// buffer from a block length.
func TestLoadSizesNothingFromUnverifiedNumbers(t *testing.T) {
	pad := func(b []byte) []byte { return append(b, make([]byte, max(0, 100-len(b)))...) }
	good := rawCand(rawCand(rawShard(0, 2), "paypa1.com", 1), "paypal1.com", 3)
	if _, err := Load(bytes.NewReader(rawSpill(2, rawHeader(1), good))); err != nil {
		t.Fatalf("hand-assembled spill does not load, so the cases below prove nothing: %v", err)
	}

	lyingLength := rawSpill(2, rawHeader(1))
	lyingLength = binary.LittleEndian.AppendUint32(lyingLength, recfile.MaxBlock)
	overCap := binary.LittleEndian.AppendUint32(rawSpill(2, rawHeader(1)), recfile.MaxBlock+1)

	cases := map[string][]byte{
		"a million shards claimed, none present": rawSpill(1<<20+1, rawHeader(1<<20)),
		"shard count over the limit":             rawSpill(1<<20+2, rawHeader(1<<20+1)),
		"header and prologue disagree":           rawSpill(3, rawHeader(1), good, good),
		"no header block":                        rawSpill(0),
		"block length at the cap, bytes absent":  pad(lyingLength),
		"block length over the cap":              pad(overCap),
		"candidate count the block cannot hold":  rawSpill(2, rawHeader(1), pad(rawShard(0, 1<<40))),
		"fewer candidates than counted":          rawSpill(2, rawHeader(1), rawCand(rawShard(0, 2), "paypa1.com", 1)),
		"bytes after the last declared block":    append(rawSpill(2, rawHeader(1), good), 0),
		"bytes after the last candidate":         rawSpill(2, rawHeader(1), append(bytes.Clone(good), 0)),
		"bytes after the header fields":          rawSpill(2, append(rawHeader(1), 0), good),
		"shard block out of order":               rawSpill(2, rawHeader(1), rawShard(1, 0)),
		"epoch stamp after the engine's epoch":   rawSpill(2, rawHeader(1), rawCand(rawShard(0, 1), "paypa1.com", 4)),
		"string longer than its block":           rawSpill(2, rawHeader(1), append(rawShard(0, 1), 200, 'a', 'b', 'c')),
		"varint that never ends":                 rawSpill(2, rawHeader(1), append(rawShard(0, 0), bytes.Repeat([]byte{0xff}, 11)...)),
		"checksum that never ends":               rawSpill(2, rawHeader(1), append(binary.AppendUvarint(nil, 0), bytes.Repeat([]byte{0x82}, 12)...)),
	}
	for name, data := range cases {
		var e *Engine
		var err error
		grew := allocatedBytes(func() { e, err = Load(bytes.NewReader(data)) })
		if e != nil || !errors.Is(err, recfile.ErrCorrupt) {
			t.Errorf("%s: Load = (engine %t, %v), want no engine and recfile.ErrCorrupt", name, e != nil, err)
		}
		if grew >= 64<<10 {
			t.Errorf("%s: refusing a %d-byte spill allocated %d bytes", name, len(data), grew)
		}
	}
}

// FuzzLoad: Load never panics, fails only with its two typed errors, and
// whatever it does accept is a state the engine can scan with and that
// Save writes back canonically. Seeded with a valid spill and a sample of
// the hostile sweep.
func FuzzLoad(f *testing.F) {
	fx := newSpillFixture(f, 53, 120, 4)
	f.Add(fx.spill)
	for i, mu := range hostileMutants(f, fx.spill, 59) {
		if i%37 == 0 {
			f.Add(mu.data)
		}
	}
	f.Add(rawSpill(2, rawHeader(1), rawCand(rawShard(0, 1), "paypa1.com", 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data))
		if err != nil {
			if e != nil || !(errors.Is(err, recfile.ErrCorrupt) || errors.Is(err, recfile.ErrUnsupported)) {
				t.Fatalf("Load = (engine %t, %v), want no engine and a typed error", e != nil, err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := e.Save(&first); err != nil {
			t.Fatalf("Save of a loaded engine: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load of a re-saved engine: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save after Load is not a fixed point")
		}
		e.Scan(fx.store, fx.m, 1)
	})
}
