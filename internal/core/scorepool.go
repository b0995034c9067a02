package core

import (
	"sync"
	"sync/atomic"
)

// scoreParallel runs fn(i) for every i in [0, n) on a bounded pool of
// Config.ScoreWorkers goroutines, the shared scoring pool behind feature
// extraction and detection over a cached crawl (image-hash/OCR scoring is
// the compute bottleneck of the pipeline, so it must scale with cores). A
// fresh crawl is scored on its crawl workers instead (scoreHook).
//
// In-flight work is tracked in the core.score.inflight gauge. fn must be
// safe for concurrent calls on distinct indices and should write its result
// to a per-index slot; callers then assemble outputs in index order, so the
// final artifacts are identical whatever the pool width.
func (p *Pipeline) scoreParallel(n int, fn func(i int)) {
	workers := p.scoreWorkers()
	if workers > n {
		workers = n
	}
	inflight := p.Obs.Gauge("core.score.inflight")
	if workers <= 1 {
		for i := 0; i < n; i++ {
			inflight.Add(1)
			fn(i)
			inflight.Add(-1)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				inflight.Add(1)
				fn(i)
				inflight.Add(-1)
			}
		}()
	}
	wg.Wait()
}
