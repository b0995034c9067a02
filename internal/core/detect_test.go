package core

import (
	"context"
	"runtime"
	"testing"

	"squatphi/internal/features"
	"squatphi/internal/webworld"
)

// detectRetainedBytesLimit bounds the live heap detection leaves behind
// per candidate per crawled snapshot. The cached crawl keeps HTML, assets
// and redirect metadata but no pixels; with its 480x800 screenshots it
// held about 440 KB.
const detectRetainedBytesLimit = 32 << 10

// TestDetectRetainsNoPixels runs DetectInWild over all four snapshots and
// bounds the heap the pipeline retains afterwards, per candidate per
// crawled snapshot, at two world sizes: the retained memory of the back
// half must stay flat in world size.
func TestDetectRetainsNoPixels(t *testing.T) {
	sizes := []int{600}
	if !testing.Short() {
		sizes = append(sizes, 2400)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, squatting := range sizes {
		p, err := New(Config{
			World:            webworld.Config{SquattingDomains: squatting, NonSquattingPhish: squatting / 10, Seed: 1},
			DNSNoiseRecords:  2000,
			ForestTrees:      10,
			Seed:             1,
			TraceSampleEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		candidates := len(p.CandidateDomains())
		gt, err := p.BuildGroundTruth(ctx, 60)
		if err != nil {
			t.Fatal(err)
		}
		clf := p.TrainClassifier(gt, features.AllFeatures())
		before := live()
		for snap := 0; snap < webworld.Snapshots; snap++ {
			if _, err := p.DetectInWild(ctx, clf, snap); err != nil {
				t.Fatal(err)
			}
		}
		perCand := (float64(live()) - float64(before)) / float64(candidates*webworld.Snapshots)
		runtime.KeepAlive(p)
		runtime.KeepAlive(clf)
		p.Close()
		t.Logf("%d squatting domains, %d candidates: detection retains %.1f KB per candidate per snapshot (limit %d KB)",
			squatting, candidates, perCand/1024, detectRetainedBytesLimit>>10)
		if perCand > detectRetainedBytesLimit {
			t.Errorf("%d squatting domains: detection retains %.1f KB per candidate per snapshot, want ≤ %d KB",
				squatting, perCand/1024, detectRetainedBytesLimit>>10)
		}
	}
}
