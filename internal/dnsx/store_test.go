package dnsx

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"squatphi/internal/simrand"
)

// writeSnapshot renders s in ReadSnapshot's text format: "domain,ip"
// lines sorted by domain.
func writeSnapshot(w io.Writer, s *Store) {
	var recs []Record
	s.Range(func(r Record) bool { recs = append(recs, r); return true })
	sort.Slice(recs, func(i, j int) bool { return recs[i].Domain < recs[j].Domain })
	for _, r := range recs {
		fmt.Fprintf(w, "%s,%s\n", r.Domain, r.IPString())
	}
}

func TestStoreAddLookup(t *testing.T) {
	s := NewStore()
	s.Add("Example.COM.", [4]byte{1, 2, 3, 4})
	ip, ok := s.Lookup("example.com")
	if !ok || ip != [4]byte{1, 2, 3, 4} {
		t.Fatalf("Lookup = %v, %v", ip, ok)
	}
	if _, ok := s.Lookup("missing.com"); ok {
		t.Fatal("Lookup of missing domain succeeded")
	}
	if name, ok := s.Name("EXAMPLE.com."); !ok || name != "example.com" {
		t.Fatalf("Name = %q, %v", name, ok)
	}
	if _, ok := s.Name("missing.com"); ok {
		t.Fatal("Name of missing domain succeeded")
	}
	s.Add("example.com", [4]byte{5, 6, 7, 8})
	if s.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", s.Len())
	}
	ip, _ = s.Lookup("example.com")
	if ip != [4]byte{5, 6, 7, 8} {
		t.Fatal("overwrite did not take effect")
	}
}

func TestStoreRangeOrderAndStop(t *testing.T) {
	s := NewStore()
	for _, d := range []string{"a.com", "b.com", "c.com"} {
		s.Add(d, [4]byte{1, 1, 1, 1})
	}
	var seen []string
	s.Range(func(r Record) bool {
		seen = append(seen, r.Domain)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != "a.com" || seen[1] != "b.com" {
		t.Fatalf("Range order/stop broken: %v", seen)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	r := simrand.New(1)
	for i := 0; i < 500; i++ {
		s.Add(r.Letters(8)+".com", RandomIP(r))
	}
	var buf bytes.Buffer
	writeSnapshot(&buf, s)
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip size %d != %d", got.Len(), s.Len())
	}
	s.Range(func(rec Record) bool {
		ip, ok := got.Lookup(rec.Domain)
		if !ok || ip != rec.IP {
			t.Fatalf("record %s lost in round trip", rec.Domain)
		}
		return true
	})
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	for _, in := range []string{"nocomma\n", "a.com,999.1.1.1\n", "a.com,1.2.3\n", "a.com,1.2.3.x\n"} {
		if _, err := ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSnapshot(%q) succeeded", in)
		}
	}
}

func TestReadSnapshotSkipsCommentsAndBlanks(t *testing.T) {
	s, err := ReadSnapshot(strings.NewReader("# header\n\na.com,1.2.3.4\n"))
	if err != nil || s.Len() != 1 {
		t.Fatalf("ReadSnapshot = len %d, err %v", s.Len(), err)
	}
}

func TestRecordIPString(t *testing.T) {
	r := Record{Domain: "x.com", IP: [4]byte{10, 0, 0, 1}}
	if r.IPString() != "10.0.0.1" {
		t.Fatalf("IPString = %q", r.IPString())
	}
}

func TestGenerateSnapshotDeterministic(t *testing.T) {
	spec := SnapshotSpec{Planted: []string{"facebook-login.com"}, NoiseRecords: 1000, Seed: 42}
	a := GenerateSnapshot(spec)
	b := GenerateSnapshot(spec)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	a.Range(func(rec Record) bool {
		ip, ok := b.Lookup(rec.Domain)
		if !ok || ip != rec.IP {
			t.Fatalf("snapshot not deterministic at %s", rec.Domain)
		}
		return true
	})
	if _, ok := a.Lookup("facebook-login.com"); !ok {
		t.Fatal("planted domain missing")
	}
}

// TestStreamSnapshotMatchesGenerate pins StreamSnapshot's contract: adding
// its records to a store in delivery order reproduces GenerateSnapshot of
// the same spec exactly — contents, iteration order and shard checksums.
func TestStreamSnapshotMatchesGenerate(t *testing.T) {
	spec := SnapshotSpec{Planted: []string{"facebook-login.com", "PayPal.net."}, NoiseRecords: 5000, Seed: 7}
	want := GenerateSnapshot(spec)
	got := NewStore()
	streamed := 0
	StreamSnapshot(spec, func(domain string, ip [4]byte) bool {
		got.Add(domain, ip)
		streamed++
		return true
	})
	if streamed != len(spec.Planted)+spec.NoiseRecords {
		t.Fatalf("streamed %d records, want %d", streamed, len(spec.Planted)+spec.NoiseRecords)
	}
	if got.Len() != want.Len() {
		t.Fatalf("store sizes differ: streamed %d vs generated %d", got.Len(), want.Len())
	}
	for i, cs := range want.Checksums() {
		if got.ShardChecksum(i) != cs {
			t.Fatalf("shard %d checksum differs", i)
		}
	}
	wantRecs, gotRecs := want.Domains(), got.Domains()
	for i := range wantRecs {
		if wantRecs[i] != gotRecs[i] {
			t.Fatalf("iteration order differs at %d: %q vs %q", i, gotRecs[i], wantRecs[i])
		}
	}
}

func TestGenerateSnapshotSeedsDiffer(t *testing.T) {
	a := GenerateSnapshot(SnapshotSpec{NoiseRecords: 100, Seed: 1})
	b := GenerateSnapshot(SnapshotSpec{NoiseRecords: 100, Seed: 2})
	shared := 0
	a.Range(func(rec Record) bool {
		if _, ok := b.Lookup(rec.Domain); ok {
			shared++
		}
		return true
	})
	if shared > 10 {
		t.Fatalf("%d/100 noise domains shared across seeds", shared)
	}
}

func TestRandomIPAvoidsReserved(t *testing.T) {
	r := simrand.New(3)
	for i := 0; i < 20000; i++ {
		ip := RandomIP(r)
		if ip[0] == 0 || ip[0] == 10 || ip[0] == 127 || ip[0] >= 224 ||
			(ip[0] == 172 && ip[1] >= 16 && ip[1] < 32) ||
			(ip[0] == 192 && ip[1] == 168) ||
			(ip[0] == 169 && ip[1] == 254) {
			t.Fatalf("reserved IP generated: %v", ip)
		}
	}
}

func TestServerAnswersQueries(t *testing.T) {
	store := NewStore()
	store.Add("paypal-cash.com", [4]byte{8, 8, 8, 8})
	srv, err := NewServerObs(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := &Prober{Addr: srv.Addr(), Timeout: time.Second, Parallelism: 2}
	recs, err := p.Probe(context.Background(), []string{"paypal-cash.com", "missing.example"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Domain != "paypal-cash.com" || recs[0].IP != [4]byte{8, 8, 8, 8} {
		t.Fatalf("Probe = %+v", recs)
	}
}

func TestProberBulk(t *testing.T) {
	store := NewStore()
	r := simrand.New(8)
	var domains []string
	for i := 0; i < 300; i++ {
		d := r.Letters(10) + ".com"
		domains = append(domains, d)
		if i%2 == 0 {
			store.Add(d, RandomIP(r))
		}
	}
	srv, err := NewServerObs(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := &Prober{Addr: srv.Addr(), Timeout: time.Second, Parallelism: 16}
	recs, err := p.Probe(context.Background(), domains)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 150 {
		t.Fatalf("resolved %d domains, want 150", len(recs))
	}
	for _, rec := range recs {
		want, ok := store.Lookup(rec.Domain)
		if !ok || want != rec.IP {
			t.Fatalf("wrong answer for %s", rec.Domain)
		}
	}
}

func TestProberContextCancel(t *testing.T) {
	store := NewStore()
	srv, err := NewServerObs(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	domains := make([]string, 1000)
	for i := range domains {
		domains[i] = "missing.example"
	}
	p := &Prober{Addr: srv.Addr(), Timeout: 50 * time.Millisecond, Parallelism: 4}
	if _, err := p.Probe(ctx, domains); err == nil {
		t.Fatal("Probe with cancelled context returned nil error")
	}
}

func TestServerIgnoresResponsesAndGarbage(t *testing.T) {
	store := NewStore()
	store.Add("x.com", [4]byte{1, 1, 1, 1})
	srv, err := NewServerObs(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if resp := srv.handle([]byte{1, 2, 3}); resp != nil {
		t.Fatal("handle answered garbage")
	}
	m := &Message{Header: Header{ID: 1, QR: true}, Questions: []Question{{Name: "x.com", Type: TypeA, Class: ClassIN}}}
	wire, _ := m.Pack()
	if resp := srv.handle(wire); resp != nil {
		t.Fatal("handle answered a response message")
	}
}

func TestServerNXDomain(t *testing.T) {
	store := NewStore()
	srv, err := NewServerObs(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wire, _ := NewQuery(3, "nope.example", TypeA).Pack()
	resp, err := Unpack(srv.handle(wire))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeNXDomain {
		t.Fatalf("RCode = %d, want NXDOMAIN", resp.Header.RCode)
	}
}

func BenchmarkServerHandle(b *testing.B) {
	store := NewStore()
	store.Add("paypal-cash.com", [4]byte{8, 8, 8, 8})
	srv, err := NewServerObs(store, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	wire, _ := NewQuery(1, "paypal-cash.com", TypeA).Pack()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = srv.handle(wire)
	}
}

func BenchmarkSnapshotGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenerateSnapshot(SnapshotSpec{NoiseRecords: 10000, Seed: uint64(i)})
	}
}
