package core

import (
	"bytes"
	"context"
	"runtime/trace"
	"testing"
	"time"

	"squatphi/internal/features"
	"squatphi/internal/obs"
	"squatphi/internal/webworld"
)

// TestStageTasksTraced captures a runtime/trace of a small pipeline run and
// finds a task for every stage it ran, the crawler's region, and the error
// a failed stage logs: the timeline /debug/pprof/trace serves. It cannot
// run in parallel, because tracing is process-wide.
func TestStageTasksTraced(t *testing.T) {
	p, err := New(Config{
		World:            webworld.Config{SquattingDomains: 600, NonSquattingPhish: 60, Seed: 1},
		DNSNoiseRecords:  2000,
		ForestTrees:      10,
		Seed:             1,
		TraceSampleEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("tracing already on: %v", err)
	}
	defer trace.Stop() // on a failed step; Stop is a no-op once stopped
	ctx := context.Background()
	p.ScanDNS()
	gt, err := p.BuildGroundTruth(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	clf := p.TrainClassifier(gt, features.AllFeatures())
	det, err := p.DetectInWild(ctx, clf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var confirmed []string
	for d := range det.ConfirmedUnion() {
		confirmed = append(confirmed, d)
	}
	if _, _, err := p.MonitorLiveness(ctx, clf, confirmed); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, crawlErr := p.CrawlDomains(cancelled, 0, p.CandidateDomains())
	if crawlErr == nil {
		t.Fatal("a crawl under a cancelled context did not fail")
	}
	trace.Stop()

	// The trace's string table holds each task and region name and each
	// log key and message once, length-prefixed; the prefix keeps "crawl"
	// from matching inside "crawl_domains".
	for _, name := range []string{
		"dns_snapshot", "scan_dns", "ground_truth", "crawl_domains", "train",
		"detect", "crawl", "liveness", "crawler.crawl", "error", crawlErr.Error(),
	} {
		if !bytes.Contains(buf.Bytes(), append([]byte{byte(len(name))}, name...)) {
			t.Errorf("trace of %d bytes has no %q string", buf.Len(), name)
		}
	}
}

// BenchmarkStageTask is what a stage and its crawl pay for instrumentation:
// the stage's task, histogram, timing and disabled debug event, and one
// region inside the task. On a 2-vCPU go1.24.0 machine it reads ~450 ns,
// 256 B and 6 allocations with tracing off and ~1.15 µs, 280 B and 7
// allocations under -test.trace; the span wrapper it replaced (a root
// obs.Span recorded into the ring, plus one child) read ~975 ns, 624 B and
// 10 allocations.
func BenchmarkStageTask(b *testing.B) {
	p := &Pipeline{Obs: obs.NewRegistry(), Events: noEvents, stageDur: map[string]time.Duration{}}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sctx, done := p.stageTask(ctx, "bench")
		trace.StartRegion(sctx, "crawler.crawl").End()
		done(nil)
	}
}
