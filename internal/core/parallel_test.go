package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"

	"squatphi/internal/deltascan"
	"squatphi/internal/dnsx"
	"squatphi/internal/features"
	"squatphi/internal/snapfmt"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

// scanFixture builds a snapshot seeded with real squatting registrations of
// a few brands plus background noise, and a matcher for those brands —
// without the cost of a full pipeline.
func scanFixture(t testing.TB, noise int) (*dnsx.Store, *squat.Matcher) {
	t.Helper()
	brands := []squat.Brand{
		squat.NewBrand("paypal.com"),
		squat.NewBrand("facebook.com"),
		squat.NewBrand("google.com"),
	}
	gen := squat.NewGenerator()
	var planted []string
	for _, b := range brands {
		for i, c := range gen.Generate(b) {
			if i%4 == 0 { // a quarter of candidates are "registered"
				planted = append(planted, c.Domain)
			}
		}
	}
	store := dnsx.GenerateSnapshot(dnsx.SnapshotSpec{Planted: planted, NoiseRecords: noise, Seed: 1035})
	return store, squat.NewMatcher(brands)
}

// snapshotBytes serialises store in the snapfmt layout.
func snapshotBytes(t *testing.T, store *dnsx.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snapfmt.WriteStore(&buf, store); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serialScan is the slow serial reference every scan path must reproduce
// byte for byte: match every record in insertion order, sort by domain.
func serialScan(store *dnsx.Store, m *squat.Matcher) []squat.Candidate {
	var out []squat.Candidate
	store.Range(func(r dnsx.Record) bool {
		if c, ok := m.Match(r.Domain); ok {
			out = append(out, c)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// TestScanStoreParallelEquivalence is the scan loop's correctness
// contract: every worker count, workers <= 0 (GOMAXPROCS) included,
// returns the exact candidate slice of the serial reference.
func TestScanStoreParallelEquivalence(t *testing.T) {
	store, m := scanFixture(t, 5000)
	want := serialScan(store, m)
	if len(want) == 0 {
		t.Fatal("serial reference found no candidates")
	}
	for _, workers := range []int{0, 1, 2, 4, 8, 64} {
		if got := ScanStore(store, m, workers, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: scan differs from the serial reference (%d vs %d candidates)",
				workers, len(got), len(want))
		}
	}
}

// streamedSnapshotBytes writes spec's record stream straight into a
// snapfmt file, the way a scan-scale snapshot is built without a store in
// memory. Nothing deduplicates on that path: a name the stream repeats is
// in the file twice.
func streamedSnapshotBytes(t *testing.T, spec dnsx.SnapshotSpec) []byte {
	t.Helper()
	w := snapfmt.NewWriter(0)
	dnsx.StreamSnapshot(spec, func(domain string, ip [4]byte) bool {
		w.Add(domain, ip)
		return true
	})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScanSnapshotEquivalence extends the equivalence contract to the
// binary snapshot path: scanning a snapfmt file returns the exact candidate
// slice of the serial reference over the store it describes, at every
// worker count including workers <= 0 (GOMAXPROCS). The files are a
// store's serialisation, and a streamed spec that lists one planted squat
// twice, which the scan must report once.
func TestScanSnapshotEquivalence(t *testing.T) {
	store, m := scanFixture(t, 5000)
	spec := dnsx.SnapshotSpec{Planted: []string{"paypa1.com", "paypa1.com", "faceb00k.com"}, NoiseRecords: 2000, Seed: 7}
	for _, in := range []struct {
		name  string
		store *dnsx.Store
		data  []byte
	}{
		{"store", store, snapshotBytes(t, store)},
		{"streamed", dnsx.GenerateSnapshot(spec), streamedSnapshotBytes(t, spec)},
	} {
		want := serialScan(in.store, m)
		if len(want) == 0 {
			t.Fatalf("%s: store scan found no candidates", in.name)
		}
		snap, err := snapfmt.OpenBytes(in.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4, 64} {
			got, err := ScanSnapshot(snap, m, workers, nil)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", in.name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, workers=%d: snapshot scan differs from the serial reference (%d vs %d candidates)",
					in.name, workers, len(got), len(want))
			}
		}
	}
}

// TestScanSnapshotCorruptSegment drives the scan loop's error path.
// OpenBytes checks only the first and last entry of a segment's offsets
// column, so swapping two middle entries passes it; the scan must then
// fail with the corruption error and a nil slice at every worker count,
// and an engine that hit the error scans in full next time.
func TestScanSnapshotCorruptSegment(t *testing.T) {
	store, m := scanFixture(t, 5000)
	data := snapshotBytes(t, store)
	le := binary.LittleEndian
	const headerSize, tableEntSize = 32, 32 // snapfmt's documented layout
	corrupted := false
	for i := 0; i < int(le.Uint32(data[16:])) && !corrupted; i++ {
		ent := data[headerSize+i*tableEntSize:]
		off, count := le.Uint64(ent), le.Uint64(ent[8:])
		if count < 3 {
			continue
		}
		offs := data[off:]
		a, b := le.Uint32(offs[4:]), le.Uint32(offs[8:])
		le.PutUint32(offs[4:], b)
		le.PutUint32(offs[8:], a)
		corrupted = true
	}
	if !corrupted {
		t.Fatal("no segment with three records to corrupt")
	}
	snap, err := snapfmt.OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes rejected a middle-offset swap (%v); the test needs corruption it misses", err)
	}
	for _, workers := range []int{1, 2, 64} {
		got, err := ScanSnapshot(snap, m, workers, nil)
		if !errors.Is(err, snapfmt.ErrCorrupt) || got != nil {
			t.Fatalf("workers=%d: ScanSnapshot = (%d candidates, %v), want (nil, ErrCorrupt)", workers, len(got), err)
		}
		e := deltascan.NewEngine()
		e.Scan(store, m, workers)
		if got := e.Scan(snap, m, workers); got != nil || !errors.Is(e.LastStats().Err, snapfmt.ErrCorrupt) {
			t.Fatalf("workers=%d: Engine.Scan = (%d candidates, %v), want (nil, ErrCorrupt)", workers, len(got), e.LastStats().Err)
		}
		got = e.Scan(store, m, workers)
		if st := e.LastStats(); !st.FullScan || st.Err != nil || !reflect.DeepEqual(got, serialScan(store, m)) {
			t.Fatalf("workers=%d: the scan after the error = %+v, want a full scan equal to the serial reference", workers, st)
		}
	}
}

// TestScanDNSMatchesSerialReference checks the pipeline-level wiring: the
// engine-backed ScanDNS returns exactly the serial reference over the
// pipeline's own snapshot, at one and at many scan workers.
func TestScanDNSMatchesSerialReference(t *testing.T) {
	cfg := Config{
		World:           webworld.Config{SquattingDomains: 600, NonSquattingPhish: 100, Seed: 21},
		DNSNoiseRecords: 2500,
		ForestTrees:     10,
		Seed:            5,
	}
	for _, workers := range []int{1, 8} {
		cfg.ScanWorkers = workers
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := p.ScanDNS()
		want := serialScan(p.DNSSnapshot(), p.Matcher)
		p.Close()
		if len(want) == 0 {
			t.Fatal("reference scan found no candidates")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: ScanDNS differs from the serial reference: %d vs %d candidates", workers, len(got), len(want))
		}
	}
}

// TestScorePoolCoversAllIndices checks the bounded scoring pool invokes fn
// exactly once per index at any width (run under -race this is also the
// pool's thread-safety proof, together with the detection path tests).
func TestScorePoolCoversAllIndices(t *testing.T) {
	p := testPipeline(t)
	for _, workers := range []int{1, 3, 16} {
		p.Cfg.ScoreWorkers = workers
		const n = 500
		hits := make([]int, n)
		p.scoreParallel(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d scored %d times", workers, i, h)
			}
		}
	}
	if got := p.Obs.Gauge("core.score.inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %v after pools drained, want 0", got)
	}
}

// TestDetectionParallelDeterministic is the equivalence contract for the
// scoring side of the spine. Detection scores a fresh crawl on the crawl
// workers (the visit hook) and a cached crawl on the scoring pool; one
// crawl worker against eight, and each of those against a second
// detection over the crawl the first one cached, must all give the same
// flag lists. The world flags pages, so the comparison is not vacuous. The
// -short world is small enough for make race-short to run the hook
// concurrently under -race.
func TestDetectionParallelDeterministic(t *testing.T) {
	cfg := Config{
		World:           webworld.Config{SquattingDomains: 700, NonSquattingPhish: 120, Seed: 42},
		DNSNoiseRecords: 1500,
		ForestTrees:     10,
		Seed:            9,
	}
	benign := 150
	if testing.Short() {
		cfg.World = webworld.Config{SquattingDomains: 150, NonSquattingPhish: 40, Seed: 8}
		cfg.ForestTrees, benign = 5, 40
	}
	run := func(workers int) (fresh, cached *Detection) {
		c := cfg
		c.CrawlWorkers, c.ScoreWorkers = workers, workers
		p, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ctx := context.Background()
		gt, err := p.BuildGroundTruth(ctx, benign)
		if err != nil {
			t.Fatal(err)
		}
		clf := p.TrainClassifier(gt, features.AllFeatures())
		if fresh, err = p.DetectInWild(ctx, clf, 0); err != nil {
			t.Fatal(err)
		}
		if cached, err = p.DetectInWild(ctx, clf, 0); err != nil {
			t.Fatal(err)
		}
		if got := p.Obs.Gauge("core.score.inflight").Value(); got != 0 {
			t.Fatalf("workers=%d: core.score.inflight = %v after detection, want 0", workers, got)
		}
		return fresh, cached
	}
	serial, serialCached := run(1)
	if len(serial.FlaggedWeb)+len(serial.FlaggedMobile) == 0 {
		t.Fatal("the world flags no page; the comparison would be vacuous")
	}
	parallel, parallelCached := run(8)
	for _, c := range []struct {
		name string
		det  *Detection
	}{{"1 worker, cached crawl", serialCached}, {"8 workers", parallel}, {"8 workers, cached crawl", parallelCached}} {
		if !reflect.DeepEqual(serial, c.det) {
			t.Fatalf("%s: detection differs from 1 worker's fresh crawl: %d+%d flags vs %d+%d",
				c.name, len(c.det.FlaggedWeb), len(c.det.FlaggedMobile),
				len(serial.FlaggedWeb), len(serial.FlaggedMobile))
		}
	}
	t.Logf("%d web + %d mobile flags, identical on every path", len(serial.FlaggedWeb), len(serial.FlaggedMobile))
}
