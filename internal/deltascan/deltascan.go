// Package deltascan is the incremental scan engine behind SquatPhi's
// longitudinal measurement (paper §3, §7): instead of re-matching every
// record of a fresh DNS snapshot from scratch, it diffs the snapshot
// against the previous epoch per store shard and re-matches only what
// changed.
//
// Two mechanisms make re-scans cheap:
//
//   - Shard skipping. dnsx.Store maintains a rolling name checksum per
//     FNV shard (a commutative sum of per-name hashes, independent of
//     insertion order and of what the names resolve to). Matching depends
//     only on the domain name, so a shard whose name checksum equals the
//     previous epoch's is skipped wholesale — its candidate list from last
//     epoch is reused verbatim, and IP-only churn skips every shard.
//   - A content-addressed match cache. Within rescanned shards, per-domain
//     match verdicts are cached across epochs, so a shard that gained one
//     name re-matches one record; every other record is a map hit.
//
// The output is merged incrementally too: an epoch that rescanned a
// minority of shards replaces just their entries in the last sorted
// result, in one linear pass, instead of re-sorting the whole answer.
//
// The cache is versioned by the matcher's Fingerprint (brand-universe hash
// plus rule/index fingerprint, squat.Matcher.Fingerprint): scanning with a
// matcher whose fingerprint differs from the cached one transparently
// degrades to a full scan and rebuilds the cache, so a config change can
// never serve stale verdicts.
//
// The engine's output contract is strict: Scan returns a candidate slice
// byte-identical to core.ScanStore's full scan of the same store with the
// same matcher, at every worker count. The property and golden tests pin
// this equivalence.
package deltascan

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/squat"
)

// verdict is one cached match result for a domain. epoch records when
// the matcher actually ran (the engine epoch of the computing Scan) —
// pure provenance, never consulted for cache validity, which rests on
// the fingerprint and checksums alone.
type verdict struct {
	cand  squat.Candidate
	ok    bool
	epoch int
}

// shardState is the engine's memory of one store shard: the name checksum
// the shard had when last scanned, the candidates it produced, and the
// per-domain verdict cache. Shard states are only ever touched by the one
// worker that owns the shard during a scan, so they need no locks.
type shardState struct {
	csum  uint64
	cands []squat.Candidate
	cache map[string]verdict
}

// Stats describes one Scan call.
type Stats struct {
	// Epoch counts Scan calls on this engine (1-based).
	Epoch int
	// FullScan reports that no prior epoch state was usable: a first scan,
	// a fingerprint invalidation, or a shard-count change.
	FullScan bool
	// Invalidated reports that prior state existed but was discarded
	// because the matcher fingerprint or the store's shard count changed.
	Invalidated bool
	// ShardsSkipped / ShardsRescanned partition the store's shards.
	ShardsSkipped, ShardsRescanned int
	// RecordsWalked is the number of records visited in rescanned shards;
	// CacheHits of them were answered from the verdict cache and
	// CacheMisses went through the matcher.
	RecordsWalked, CacheHits, CacheMisses int
	// CandidatesReused counts candidates taken verbatim from skipped
	// shards' previous-epoch lists.
	CandidatesReused int
	// Duration is the wall time of the Scan call.
	Duration time.Duration
}

// SkipRatio is the fraction of shards skipped wholesale.
func (s Stats) SkipRatio() float64 {
	if n := s.ShardsSkipped + s.ShardsRescanned; n > 0 {
		return float64(s.ShardsSkipped) / float64(n)
	}
	return 0
}

// metrics holds the engine's registry handles (see InstrumentMetrics).
type metrics struct {
	scans, fullScans, invalidations     *obs.Counter
	shardsSkipped, shardsRescanned      *obs.Counter
	cacheHits, cacheMisses, cachePrunes *obs.Counter
	recordsWalked                       *obs.Counter
	skipRatio, cacheEntries             *obs.Gauge
	scanMS                              *obs.Histogram
}

// Engine is a persistent incremental scanner. It is bound to one logical
// snapshot lineage (successive epochs of "the DNS") and one matcher
// configuration at a time; feed it successive stores via Scan. An Engine
// serialises its own Scan calls; Scan results are plain value slices and
// safe to retain.
type Engine struct {
	mu     sync.Mutex
	fp     uint64 // of the matcher that produced shards; meaningless while shards is nil
	shards []*shardState
	// out is the previous Scan's sorted result, each candidate tagged with
	// the shard it was walked in; nil when there is none to build on (a
	// full-scan reset, a Load, or simply no candidates).
	out   []shardCandidate
	epoch int
	last  Stats
	met   *metrics
}

// shardCandidate is one entry of the retained output. The shard is
// carried, not recomputed: the store shards by its own normalised name, a
// Candidate carries the matcher's, and "a.com.." loses one dot to each.
type shardCandidate struct {
	squat.Candidate
	shard int
}

// NewEngine returns an empty engine; its first Scan is a full scan.
func NewEngine() *Engine { return &Engine{} }

// InstrumentMetrics points the engine's counters at reg: deltascan.scans,
// .full_scans, .invalidations, .shards_skipped, .shards_rescanned,
// .cache_hits, .cache_misses, .cache_prunes, .records_walked, the gauges
// .shard_skip_ratio and .cache_entries, and the .scan_ms histogram.
func (e *Engine) InstrumentMetrics(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.met = &metrics{
		scans:           reg.Counter("deltascan.scans"),
		fullScans:       reg.Counter("deltascan.full_scans"),
		invalidations:   reg.Counter("deltascan.invalidations"),
		shardsSkipped:   reg.Counter("deltascan.shards_skipped"),
		shardsRescanned: reg.Counter("deltascan.shards_rescanned"),
		cacheHits:       reg.Counter("deltascan.cache_hits"),
		cacheMisses:     reg.Counter("deltascan.cache_misses"),
		cachePrunes:     reg.Counter("deltascan.cache_prunes"),
		recordsWalked:   reg.Counter("deltascan.records_walked"),
		skipRatio:       reg.Gauge("deltascan.shard_skip_ratio"),
		cacheEntries:    reg.Gauge("deltascan.cache_entries"),
		scanMS:          reg.Histogram("deltascan.scan_ms", obs.MillisBuckets),
	}
}

// LastStats returns the statistics of the most recent Scan.
func (e *Engine) LastStats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// Epoch returns the number of Scan calls absorbed so far.
func (e *Engine) Epoch() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Provenance explains how a domain's verdict relates to the engine's
// scan history — the "cache hit vs fresh" half of a verdict's evidence
// trail.
type Provenance struct {
	// Epoch is the engine's current epoch (Scan calls absorbed).
	Epoch int
	// ComputedEpoch is the epoch whose Scan actually ran the matcher for
	// this domain.
	ComputedEpoch int
	// Cached reports that the latest scan answered this domain without
	// re-running the matcher — a verdict-cache hit inside a rescanned
	// shard, or wholesale reuse of a skipped shard's candidate list.
	Cached bool
	// Matched is the cached verdict itself.
	Matched bool
}

// Provenance looks a domain up in the verdict cache of the one shard that
// can hold it: the cache is keyed by the store's normalised name in the
// store's own shard. The second result is false when the engine has never
// matched the domain (not yet scanned, or the record left the snapshot and
// was pruned).
func (e *Engine) Provenance(domain string) (Provenance, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.shards) > 0 {
		d := dnsx.Normalize(domain)
		if v, ok := e.shards[dnsx.ShardIndex(d, len(e.shards))].cache[d]; ok {
			return Provenance{Epoch: e.epoch, ComputedEpoch: v.epoch, Cached: v.epoch < e.epoch, Matched: v.ok}, true
		}
	}
	return Provenance{Epoch: e.epoch}, false
}

// Scan matches every record of store against m, reusing the previous
// epoch's work wherever the store is provably unchanged. The returned
// slice is sorted by domain and byte-identical to a cold full scan
// (core.ScanStore) of the same store with the same matcher, at any workers
// value (<= 0 means GOMAXPROCS, 1 forces the serial path).
func (e *Engine) Scan(store *dnsx.Store, m *squat.Matcher, workers int) []squat.Candidate {
	e.mu.Lock()
	defer e.mu.Unlock()
	sw := obs.StartStopwatch()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	st := Stats{Epoch: e.epoch + 1}
	fp := m.Fingerprint()
	n := store.NumShards()
	if e.shards == nil || e.fp != fp || len(e.shards) != n {
		st.FullScan = true
		st.Invalidated = e.shards != nil
		e.shards = make([]*shardState, n)
		for i := range e.shards {
			e.shards[i] = &shardState{cache: make(map[string]verdict)}
		}
		e.fp, e.out = fp, nil
	}

	// Partition shards into skips and rescans by comparing the store's
	// rolling name checksums against the previous epoch's: a verdict is a
	// pure function of the name, so a re-point changes nothing here.
	rescan := make([]int, 0, n)
	for i := 0; i < n; i++ {
		cs := store.ShardNameChecksum(i)
		if !st.FullScan && e.shards[i].csum == cs {
			st.ShardsSkipped++
			st.CandidatesReused += len(e.shards[i].cands)
			continue
		}
		e.shards[i].csum = cs
		rescan = append(rescan, i)
	}
	st.ShardsRescanned = len(rescan)

	// Rescan changed shards on a worker pool. Each shard is owned by
	// exactly one worker, so shard states are mutated without locks.
	if len(rescan) > 0 {
		var next, walked, hits, prunes atomic.Int64
		var wg sync.WaitGroup
		for w := min(workers, len(rescan)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ri := int(next.Add(1)) - 1; ri < len(rescan); ri = int(next.Add(1)) - 1 {
					nw, nh, pruned := e.shards[rescan[ri]].rescan(store, rescan[ri], m, st.Epoch)
					walked.Add(int64(nw))
					hits.Add(int64(nh))
					if pruned {
						prunes.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		st.RecordsWalked, st.CacheHits = int(walked.Load()), int(hits.Load())
		st.CacheMisses = st.RecordsWalked - st.CacheHits
		if e.met != nil {
			e.met.cachePrunes.Add(prunes.Load())
		}
	}

	out := e.merge(rescan)

	st.Duration = sw.Elapsed()
	e.epoch, e.last = st.Epoch, st
	e.report(st)
	return out
}

// report publishes one scan's statistics to the metrics registry.
func (e *Engine) report(st Stats) {
	if e.met == nil {
		return
	}
	e.met.scans.Inc()
	if st.FullScan {
		e.met.fullScans.Inc()
	}
	if st.Invalidated {
		e.met.invalidations.Inc()
	}
	e.met.shardsSkipped.Add(int64(st.ShardsSkipped))
	e.met.shardsRescanned.Add(int64(st.ShardsRescanned))
	e.met.cacheHits.Add(int64(st.CacheHits))
	e.met.cacheMisses.Add(int64(st.CacheMisses))
	e.met.recordsWalked.Add(int64(st.RecordsWalked))
	e.met.skipRatio.Set(st.SkipRatio())
	e.met.scanMS.Observe(float64(st.Duration) / float64(time.Millisecond))
	entries := 0
	for _, sh := range e.shards {
		entries += len(sh.cache)
	}
	e.met.cacheEntries.Set(float64(entries))
}

// rescan rebuilds one shard's candidate list from the store, answering
// from the verdict cache where possible. It returns the records walked,
// the cache hits among them, and whether the cache was pruned. epoch
// stamps fresh verdicts for provenance.
func (sh *shardState) rescan(store *dnsx.Store, shard int, m *squat.Matcher, epoch int) (walked, hits int, pruned bool) {
	cands := make([]squat.Candidate, 0, len(sh.cands))
	var sc squat.Scratch
	store.RangeShard(shard, func(r dnsx.Record) bool {
		walked++
		v, ok := sh.cache[r.Domain]
		if ok {
			hits++
		} else {
			v.cand, v.ok = m.MatchString(r.Domain, &sc)
			v.epoch = epoch
			sh.cache[r.Domain] = v
		}
		if v.ok {
			cands = append(cands, v.cand)
		}
		return true
	})
	sh.cands = cands

	// The cache accumulates verdicts for domains that have since left the
	// snapshot. Once stale entries dominate (and the shard is non-trivial),
	// rebuild the cache from the live record set.
	if len(sh.cache) > 2*walked && len(sh.cache) > 256 {
		fresh := make(map[string]verdict, walked)
		store.RangeShard(shard, func(r dnsx.Record) bool {
			if v, ok := sh.cache[r.Domain]; ok {
				fresh[r.Domain] = v
			}
			return true
		})
		sh.cache = fresh
		pruned = true
	}
	return walked, hits, pruned
}

// merge brings the retained output in step with the shards just rescanned
// and returns a copy of it. Invariant: e.out is every shard's cands,
// tagged with their shard, sorted by domain. The rescanned shards' fresh
// candidates are gathered and sorted, then one linear pass over the
// previous output drops what those shards used to own and merges the fresh
// ones in. With no previous output (a full scan, a first scan after Load)
// or most shards rescanned, every shard counts as fresh and the pass has
// nothing to walk: the rebuild is the same code with an empty left side.
//
// Candidate domains are unique within a store, so the order is total and
// equal to core.ScanStore's — nil, not empty, when nothing matched. The
// result is a fresh slice the caller may keep or mutate.
func (e *Engine) merge(rescan []int) []squat.Candidate {
	rebuild := e.out == nil || 2*len(rescan) > len(e.shards)
	if rebuild || len(rescan) > 0 {
		stale := make([]bool, len(e.shards))
		for _, i := range rescan {
			stale[i] = true
		}
		var fresh []shardCandidate
		for i, sh := range e.shards {
			if rebuild || stale[i] {
				for _, c := range sh.cands {
					fresh = append(fresh, shardCandidate{c, i})
				}
			}
		}
		slices.SortFunc(fresh, func(a, b shardCandidate) int { return strings.Compare(a.Domain, b.Domain) })
		if !rebuild {
			next := make([]shardCandidate, 0, len(e.out)+len(fresh))
			for _, p := range e.out {
				if stale[p.shard] {
					continue
				}
				for len(fresh) > 0 && fresh[0].Domain < p.Domain {
					next, fresh = append(next, fresh[0]), fresh[1:]
				}
				next = append(next, p)
			}
			fresh = append(next, fresh...)
		}
		e.out = fresh
	}
	if len(e.out) == 0 {
		return nil
	}
	out := make([]squat.Candidate, len(e.out))
	for i := range e.out {
		out[i] = e.out[i].Candidate
	}
	return out
}
