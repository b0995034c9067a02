package snapfmt

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// checksums returns every segment's stored checksum, index-compatible
// with dnsx.Store.Checksums over the same records and shard count.
func checksums(s *Snapshot) []uint64 {
	out := make([]uint64, len(s.segs))
	for i := range s.segs {
		out[i] = s.segs[i].checksum
	}
	return out
}

// randomStore builds a store with a deterministic pseudo-random record
// population: background noise, squatting shapes, IDN labels, multi-label
// TLDs, case/trailing-dot dirt (which Store.Add normalizes away).
func randomStore(seed uint64, n int) *dnsx.Store {
	rng := simrand.New(seed)
	s := dnsx.NewStore()
	tlds := []string{"com", "net", "org", "io", "co.uk", "com.br"}
	words := []string{"cloud", "shop", "secure", "login", "mail", "paypal", "facebook", "paypa1", "xn--fcebook-8va", "a", ""}
	for i := 0; i < n; i++ {
		var d string
		switch rng.Intn(5) {
		case 0:
			d = fmt.Sprintf("%s-%s.%s", words[rng.Intn(len(words))], words[rng.Intn(len(words))], tlds[rng.Intn(len(tlds))])
		case 1:
			d = fmt.Sprintf("host%d.%s", rng.Intn(1<<20), tlds[rng.Intn(len(tlds))])
		case 2:
			d = fmt.Sprintf("%s%d.%s", words[rng.Intn(len(words))], rng.Intn(100), tlds[rng.Intn(len(tlds))])
		case 3:
			d = fmt.Sprintf("Sub.%s.%s.", words[rng.Intn(len(words))], tlds[rng.Intn(len(tlds))])
		default:
			d = fmt.Sprintf("%s.%s", words[rng.Intn(len(words))], tlds[rng.Intn(len(tlds))])
		}
		s.Add(d, dnsx.RandomIP(rng))
	}
	return s
}

// storeRecords flattens a store in its deterministic iteration order.
func storeRecords(s *dnsx.Store) []dnsx.Record {
	var out []dnsx.Record
	s.Range(func(r dnsx.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// TestRoundTripMatchesText is the round-trip property of the issue:
// for random stores, the sorted "domain,ip" text through ReadSnapshot and binary
// WriteStore→ReadStore produce identical store contents (records,
// iteration order, checksums) and identical scan verdicts.
func TestRoundTripMatchesText(t *testing.T) {
	m := squat.NewMatcher([]squat.Brand{
		squat.NewBrand("paypal.com"),
		squat.NewBrand("facebook.com"),
	})
	for seed := uint64(1); seed <= 8; seed++ {
		n := int(seed-1) * 97 // includes the empty store
		src := randomStore(seed, n)

		var text bytes.Buffer
		var recs []dnsx.Record
		src.Range(func(r dnsx.Record) bool { recs = append(recs, r); return true })
		sort.Slice(recs, func(i, j int) bool { return recs[i].Domain < recs[j].Domain })
		for _, r := range recs {
			fmt.Fprintf(&text, "%s,%s\n", r.Domain, r.IPString())
		}
		fromText, err := dnsx.ReadSnapshot(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		var bin bytes.Buffer
		if _, err := WriteStore(&bin, src); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenBytes(bin.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Sorted() {
			t.Fatal("WriteStore output not marked sorted")
		}
		if snap.Len() != uint64(src.Len()) {
			t.Fatalf("seed %d: snapshot has %d records, store %d", seed, snap.Len(), src.Len())
		}
		fromBin, err := snap.ReadStore()
		if err != nil {
			t.Fatal(err)
		}

		if got, want := storeRecords(fromBin), storeRecords(fromText); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: binary round trip records differ from text round trip\nbinary: %v\ntext:   %v", seed, got, want)
		}
		if got, want := fromBin.Checksums(), fromText.Checksums(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: round-trip checksums differ", seed)
		}
		// Segment headers must carry the source store's shard checksums —
		// the invariant a delta scanner relies on.
		if got, want := checksums(snap), src.Checksums(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: segment checksums %v != store shard checksums %v", seed, got, want)
		}
		for i := 0; i < snap.NumShards(); i++ {
			if err := snap.VerifyShard(i); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		// Scan verdicts: classifying every record of the mapped snapshot
		// must flag exactly the same candidates as scanning the store.
		var want []squat.Candidate
		fromText.Range(func(r dnsx.Record) bool {
			if c, ok := m.Match(r.Domain); ok {
				want = append(want, c)
			}
			return true
		})
		var got []squat.Candidate
		var sc squat.Scratch
		if err := snap.Visit(func(domain []byte, ip [4]byte) bool {
			if c, ok := m.MatchBytes(domain, &sc); ok {
				got = append(got, c)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sortCandidates(got)
		sortCandidates(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshot scan verdicts differ\nsnapshot: %v\nstore:    %v", seed, got, want)
		}
	}
}

func sortCandidates(cs []squat.Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Domain < cs[j-1].Domain; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// TestOpenFile exercises the mmap (or fallback) file path end to end.
func TestOpenFile(t *testing.T) {
	src := randomStore(42, 500)
	path := filepath.Join(t.TempDir(), "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteStore(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Len() != uint64(src.Len()) {
		t.Fatalf("mapped snapshot has %d records, store %d", snap.Len(), src.Len())
	}
	count := 0
	if err := snap.Visit(func(domain []byte, ip [4]byte) bool {
		if got, ok := src.Lookup(string(domain)); !ok || got != ip {
			t.Fatalf("record %q/%v not in source store", domain, ip)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != src.Len() {
		t.Fatalf("visited %d records, want %d", count, src.Len())
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingWriterChecksums pins the unsorted streaming path: a Writer
// fed the same records as a store produces the same segment checksums and
// record count, but is scan-only (ReadStore refuses).
func TestStreamingWriterChecksums(t *testing.T) {
	src := randomStore(7, 300)
	w := NewWriter(src.NumShards())
	src.Range(func(r dnsx.Record) bool {
		w.Add(r.Domain, r.IP)
		return true
	})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sorted() {
		t.Fatal("streaming writer output unexpectedly marked sorted")
	}
	if got, want := checksums(snap), src.Checksums(); !reflect.DeepEqual(got, want) {
		t.Fatalf("segment checksums %v != store shard checksums %v", got, want)
	}
	if _, err := snap.ReadStore(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadStore on unsorted snapshot: err = %v, want ErrCorrupt", err)
	}
}

// TestTailShard pins the snapshot's side of the scan-engine source: a
// segment's mark is (checksum, count, count); a walk from 0 visits the
// segment's domains in segment order and reports the checksum as its sum;
// a walk from the mark visits nothing.
func TestTailShard(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteStore(&buf, randomStore(13, 400)); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < snap.NumShards(); i++ {
		var want, got []string
		if err := snap.VisitShardDomains(i, func(d []byte) bool { want = append(want, string(d)); return true }); err != nil {
			t.Fatal(err)
		}
		mark := snap.ShardNameMark(i)
		if mark != (dnsx.ShardMark{Sum: snap.segs[i].checksum, Next: uint64(len(want)), Len: len(want)}) {
			t.Fatalf("segment %d: mark %+v, want (checksum, %d, %d)", i, mark, len(want), len(want))
		}
		visit := func(d []byte) { got = append(got, string(d)) }
		visited, now, err := snap.TailShard(i, 0, visit)
		if err != nil || now != mark || visited != mark.Sum || !reflect.DeepEqual(got, want) {
			t.Fatalf("segment %d: walk from 0 = (%d names, sum %x, %+v, %v), want the %d names and the checksum", i, len(got), visited, now, err, len(want))
		}
		got = nil
		if visited, _, err := snap.TailShard(i, mark.Next, visit); err != nil || visited != 0 || got != nil {
			t.Fatalf("segment %d: walk from the mark visited %d names, sum %x, %v", i, len(got), visited, err)
		}
	}
}

// TestOpenBytesRejectsCorruption flips bytes and truncates a valid file at
// every prefix length: OpenBytes+Visit must error or succeed, never panic,
// and structural damage to the header or table must be detected.
func TestOpenBytesRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteStore(&buf, randomStore(3, 100)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := OpenBytes(nil); err == nil {
		t.Error("OpenBytes(nil) succeeded")
	}
	for cut := 0; cut < len(valid); cut += 7 {
		if snap, err := OpenBytes(valid[:cut]); err == nil {
			// A truncation that still parses must at least visit cleanly
			// or error — exercised for panics either way.
			for i := 0; i < snap.NumShards(); i++ {
				_ = snap.VisitShard(i, func([]byte, [4]byte) bool { return true })
			}
			t.Errorf("OpenBytes of %d-byte truncation succeeded", cut)
		}
	}
	// Header field corruption.
	for _, off := range []int{0, 8, 12, 16, 24} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		if snap, err := OpenBytes(mut); err == nil {
			// flags (12) may flip benignly; everything else must fail.
			if off != 12 {
				t.Errorf("OpenBytes with header byte %d flipped succeeded", off)
			}
			_ = snap
		}
	}
	// Segment-table corruption: offsets, counts, arena lengths.
	for off := headerSize; off < headerSize+tableEntSize; off += 4 {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		snap, err := OpenBytes(mut)
		if err != nil {
			continue
		}
		for i := 0; i < snap.NumShards(); i++ {
			_ = snap.VisitShard(i, func([]byte, [4]byte) bool { return true })
			_ = snap.VerifyShard(i)
		}
	}
}

// FuzzOpenBytes is the binary-reader fuzz target of the issue: arbitrary
// input must open-and-visit without panicking or reading out of bounds.
func FuzzOpenBytes(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteStore(&buf, randomStore(5, 60)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add([]byte(Magic))
	f.Add([]byte{})
	trunc := bytes.Clone(valid[:len(valid)/2])
	f.Add(trunc)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := OpenBytes(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenBytes error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		n := uint64(0)
		for i := 0; i < snap.NumShards(); i++ {
			if err := snap.VisitShard(i, func(domain []byte, ip [4]byte) bool {
				n++
				return true
			}); err != nil {
				return
			}
			_ = snap.VerifyShard(i)
		}
		if n != snap.Len() {
			t.Fatalf("visited %d records, header says %d", n, snap.Len())
		}
		if snap.Sorted() {
			_, _ = snap.ReadStore()
		}
	})
}
