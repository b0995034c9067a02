// Package deltascan is the scan engine behind SquatPhi's measurement
// (paper §3, §7): the one worker loop that matches a record source's
// names, and the incremental state that lets a fresh DNS snapshot epoch
// re-match only what changed instead of every record from scratch. A cold
// scan (core.ScanStore, core.ScanSnapshot) is a fresh engine's first Scan.
//
// The engine remembers, per source shard, only the shard's candidates — a
// miss carries nothing the name does not — and rests on two facts: a
// verdict is a pure function of the name, and a source never drops a name.
// Two mechanisms make re-scans cheap:
//
//   - Shard skipping. Every source reads a checksum per shard that keys
//     the shard's names: dnsx.Store a rolling name checksum (a commutative
//     sum of per-name hashes, independent of insertion order and of what
//     the names resolve to), snapfmt.Snapshot its segment checksum. A shard
//     whose checksum equals the previous epoch's is skipped wholesale — its
//     candidates are reused verbatim, and on a store IP-only churn skips
//     every shard.
//   - Tail matching. On the source instance it last read, a rescanned
//     shard matches only the names inserted since its mark, and trusts
//     that tail only if the visited names account exactly for the move of
//     the shard's checksum (Source.TailShard). Anything else — another
//     source, a failed check — re-matches the whole shard.
//
// The output is merged incrementally too: the fresh candidates of an
// epoch are inserted into the last sorted result by binary search, and a
// shard re-matched in full drops its old entries by shard tag. Scan copies
// the merged output into the slice it returns only when the output
// changed: an epoch that adds and drops no candidate hands back the last
// result itself, so Scan results are read-only.
//
// The state is versioned by the matcher's Fingerprint (brand-universe hash
// plus rule/index fingerprint, squat.Matcher.Fingerprint): scanning with a
// matcher whose fingerprint differs transparently degrades to a full scan,
// so a config change can never serve stale verdicts.
//
// The engine's output contract is strict: Scan returns a candidate slice
// byte-identical to the serial reference — match every record, sort by
// domain — over the same records with the same matcher, at every worker
// count. The property and golden tests pin this equivalence.
package deltascan

import (
	"cmp"
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

// Source is what the engine scans: records split into shards, each read
// through a mark. *dnsx.Store and *snapfmt.Snapshot satisfy it.
type Source interface {
	// NumShards is the shard count; a change of it invalidates the state.
	NumShards() int
	// ShardNameMark reads one shard's mark. Equal Sums mean (up to hash
	// collision) the same names, so a shard whose Sum did not move is
	// skipped, and adopts the reading. A reading may be taken without a
	// lock and need not be of one instant, but its Next and Len must be
	// no newer than its Sum, so that a skipped shard never adopts a Next
	// past a name its Sum does not count (dnsx.Store.ShardNameMark).
	ShardNameMark(shard int) dnsx.ShardMark
	// TailShard calls fn with every name of one shard from mark point from
	// on (0 walks the whole shard) and returns the sum of the visited
	// names' checksum terms with the shard's mark as of the walk. On the
	// instance an earlier mark then was read from, the tail from then.Next
	// is trusted iff visited == now.Sum-then.Sum, so a torn reading costs
	// a rescan, never a name. The name is valid only for the call.
	TailShard(shard int, from uint64, fn func(name []byte)) (visited uint64, now dnsx.ShardMark, err error)
}

// cand is one candidate of the engine's state: the match, the shard its
// record was walked in, and the epoch whose Scan ran the matcher on it.
// The shard is carried, not recomputed: the store shards by its own
// normalised name, a Candidate carries the matcher's, and "a.com.." loses
// one dot to each.
type cand struct {
	squat.Candidate
	shard int32
	epoch int32
}

// cmpDomain orders the retained output: by domain, then by walk shard, for
// the records in two shards that the matcher reports under one domain.
func cmpDomain(a, b cand) int {
	if c := strings.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	return cmp.Compare(a.shard, b.shard)
}

// shardState is the engine's memory of one source shard: its candidates in
// walk order, and the reading of its names (dnsx.ShardMark) they answer
// for, taken on the engine's src. Only the worker that owns a shard during
// a scan touches its state.
type shardState struct {
	mark  dnsx.ShardMark
	cands []cand
}

// Stats describes one Scan call.
type Stats struct {
	// Epoch counts Scan calls on this engine (1-based).
	Epoch int
	// FullScan reports that no prior epoch state was usable: a first scan,
	// a fingerprint invalidation, a shard-count change, or a source error
	// in the previous Scan.
	FullScan bool
	// Invalidated reports that prior state existed but was discarded
	// because the matcher fingerprint or the source's shard count changed.
	Invalidated bool
	// ShardsSkipped / ShardsRescanned partition the source's shards.
	ShardsSkipped, ShardsRescanned int
	// RecordsWalked is the number of records the matcher ran on, and
	// CacheMisses the same number. CacheHits counts the records of
	// rescanned shards carried without matching: below the tail of a shard
	// whose tail was trusted.
	RecordsWalked, CacheHits, CacheMisses int
	// CandidatesReused counts candidates taken verbatim from skipped
	// shards' previous-epoch lists.
	CandidatesReused int
	// Duration is the wall time of the Scan call.
	Duration time.Duration
	// Err is the error of the first shard, in shard order, the source
	// failed to read. Scan then returned nil and dropped the engine's
	// state, so the next Scan is a full scan.
	Err error
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
	scans, fullScans, invalidations *obs.Counter
	shardsSkipped, shardsRescanned  *obs.Counter
	cacheHits, cacheMisses          *obs.Counter
	recordsWalked                   *obs.Counter
	skipRatio, cacheEntries         *obs.Gauge
	scanMS                          *obs.Histogram
}

// Engine is a persistent incremental scanner. It is bound to one logical
// snapshot lineage (successive epochs of "the DNS") and one matcher
// configuration at a time; feed it successive sources via Scan. An Engine
// serialises its own Scan calls. A Scan result is read-only: the engine
// never writes into a slice it has returned, so keeping one is safe, and
// an epoch that changes no candidate returns the previous result itself.
type Engine struct {
	mu     sync.Mutex
	fp     uint64 // of the matcher that produced shards; meaningless while shards is nil
	shards []shardState
	// src is the source every shard's state was read on: each Scan leaves
	// all of them on its own. It is nil when the states did not come from
	// a walk of a source this process holds (a fresh or loaded engine), so
	// that only the checksums can vouch for them.
	src Source
	// out is every shard's candidates sorted by domain: the last Scan's
	// answer. spare is the buffer the next merge writes into.
	out, spare []cand
	// answer is out as last handed out by Scan, nil whenever out has been
	// replaced since; an epoch that leaves out alone returns it again.
	answer []squat.Candidate
	epoch  int
	last   Stats
	met    *metrics
	// next and wg drive Scan's worker pool. mu serialises Scans, so one
	// pair serves every epoch and no Scan moves its own to the heap.
	next atomic.Int64
	wg   sync.WaitGroup
}

// NewEngine returns an empty engine; its first Scan is a full scan.
func NewEngine() *Engine { return &Engine{} }

// InstrumentMetrics points the engine's counters at reg: deltascan.scans,
// .full_scans, .invalidations, .shards_skipped, .shards_rescanned,
// .cache_hits, .cache_misses, .records_walked (see Stats), the gauges
// .shard_skip_ratio and .cache_entries (the candidates retained), and the
// .scan_ms histogram.
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

// Provenance explains how a candidate relates to the engine's scan
// history — the "cache hit vs fresh" half of a verdict's evidence trail.
type Provenance struct {
	// Epoch is the engine's current epoch (Scan calls absorbed).
	Epoch int
	// ComputedEpoch is the epoch whose Scan actually ran the matcher for
	// this candidate.
	ComputedEpoch int
	// Cached reports that the latest scan answered this candidate without
	// re-running the matcher — a shard skipped wholesale, or a record below
	// the tail of a shard that was rescanned.
	Cached bool
}

// Provenance looks a candidate up by the spelling Scan returned it under.
// The engine remembers candidates only, so the second result is false for
// a name it never matched or that matched nothing; callers fall back to
// their own scan epoch for those.
func (e *Engine) Provenance(domain string) (Provenance, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := slices.BinarySearchFunc(e.out, dnsx.Normalize(domain), func(c cand, d string) int { return strings.Compare(c.Domain, d) })
	if !ok {
		return Provenance{Epoch: e.epoch}, false
	}
	at := int(e.out[i].epoch)
	return Provenance{Epoch: e.epoch, ComputedEpoch: at, Cached: at < e.epoch}, true
}

// Scan matches every name of src against m, reusing the previous epoch's
// work wherever src is provably unchanged. The shards to rescan go to
// workers goroutines (<= 0 means GOMAXPROCS, at most one per shard; 1 runs
// the same loop on one goroutine). The returned slice is sorted by domain
// and byte-identical to the serial reference (match every record, sort by
// domain) at any workers value. The result is read-only and shared: an
// epoch that adds and drops no candidate returns the previous Scan's slice
// without a copy, and the engine never writes into a slice it returned.
// If src fails to read a shard, Scan returns nil, drops the engine's state
// and reports the error in Stats.Err.
func (e *Engine) Scan(src Source, m *squat.Matcher, workers int) []squat.Candidate {
	e.mu.Lock()
	defer e.mu.Unlock()
	sw := obs.StartStopwatch()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	st := Stats{Epoch: e.epoch + 1}
	fp := m.Fingerprint()
	n := src.NumShards()
	if e.shards == nil || e.fp != fp || len(e.shards) != n {
		st.FullScan = true
		st.Invalidated = e.shards != nil
		e.shards = make([]shardState, n)
		e.fp, e.src, e.out, e.answer = fp, nil, e.out[:0], nil
	}

	// Partition shards into skips and rescans on the name checksum: a
	// verdict is a pure function of the name, so a re-point changes
	// nothing here. A skipped shard's state answers for the current source
	// as it stands, so it adopts that source and mark — without that, every
	// shard would re-match in full after a Load. The mark is written only
	// when it moved, which on a warm epoch it mostly did not.
	var rescan []int
	for i := range e.shards {
		sh := &e.shards[i]
		now := src.ShardNameMark(i)
		if !st.FullScan && sh.mark.Sum == now.Sum {
			if sh.mark != now {
				sh.mark = now
			}
			st.ShardsSkipped++
			st.CandidatesReused += len(sh.cands)
			continue
		}
		rescan = append(rescan, i)
	}
	st.ShardsRescanned = len(rescan)

	// Rescan changed shards on a worker pool. Each shard is owned by
	// exactly one worker, so shard states are mutated without locks.
	walks := make([]walk, len(rescan))
	e.next.Store(0)
	for w := min(workers, len(rescan)); w > 0; w-- {
		e.wg.Add(1)
		go e.rescanWorker(src, e.src == src, m, st.Epoch, rescan, walks)
	}
	e.wg.Wait()

	// fresh is sized once: grown by append it left as much garbage as it
	// kept, which a full scan's peak RSS showed.
	nfresh := 0
	for ri, i := range rescan {
		nfresh += len(e.shards[i].cands) - walks[ri].from
	}
	fresh := make([]cand, 0, nfresh)
	var drop []bool
	for ri, i := range rescan {
		w := walks[ri]
		if st.Err == nil {
			st.Err = w.err
		}
		st.RecordsWalked += w.matched
		st.CacheHits += w.carried
		if w.dropped {
			if drop == nil {
				drop = make([]bool, n)
			}
			drop[i] = true
		}
		fresh = append(fresh, e.shards[i].cands[w.from:]...)
	}
	st.CacheMisses = st.RecordsWalked
	if st.Err != nil {
		e.shards, e.src, e.out, e.answer = nil, nil, e.out[:0], nil
	} else {
		e.src = src
		e.merge(fresh, drop)
	}

	if e.answer == nil && len(e.out) > 0 {
		e.answer = make([]squat.Candidate, len(e.out))
		for i := range e.out {
			e.answer[i] = e.out[i].Candidate
		}
	}
	st.Duration = sw.Elapsed()
	e.epoch, e.last = st.Epoch, st
	e.report(st)
	return e.answer
}

// rescanWorker is one of Scan's pool goroutines: it claims indexes of
// rescan from e.next until none is left, rescanning each claimed shard at
// epoch into walks; same reports that the shard states were read on src.
// Each shard is claimed once, so no two workers touch the same shard
// state.
func (e *Engine) rescanWorker(src Source, same bool, m *squat.Matcher, epoch int, rescan []int, walks []walk) {
	defer e.wg.Done()
	tm := newTailMatcher(m, epoch)
	for ri := int(e.next.Add(1)) - 1; ri < len(rescan); ri = int(e.next.Add(1)) - 1 {
		walks[ri] = e.shards[rescan[ri]].rescan(src, same, rescan[ri], tm)
	}
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
	e.met.cacheEntries.Set(float64(len(e.out)))
}

// walk is what rescanning one shard did: the records the matcher ran on,
// the records carried without it, where in the shard's candidates this
// scan's begin, whether the shard's previous candidates were dropped, and
// the source's error.
type walk struct {
	matched, carried, from int
	dropped                bool
	err                    error
}

// tailMatcher is one scan worker's match callback, built once per
// worker: rescan points it at a shard's state before each walk, so a
// rescanned shard heap-allocates no closure and no counter of its own.
type tailMatcher struct {
	sc      squat.Scratch
	sh      *shardState
	shard   int32
	matched int
	match   func(name []byte)
}

func newTailMatcher(m *squat.Matcher, epoch int) *tailMatcher {
	t := &tailMatcher{}
	t.match = func(name []byte) {
		t.matched++
		if c, ok := m.MatchBytes(name, &t.sc); ok {
			t.sh.cands = append(t.sh.cands, cand{c, t.shard, int32(epoch)})
		}
	}
	return t
}

// rescan brings one shard's state up to date with src. On the source it
// last read (same), it matches only the tail inserted since its mark and keeps
// the result if the tail's names account exactly for the move of the
// shard's checksum; otherwise it re-matches the whole shard. The
// candidates it finds carry the epoch t was built for.
func (sh *shardState) rescan(src Source, same bool, shard int, t *tailMatcher) walk {
	t.sh, t.shard, t.matched = sh, int32(shard), 0
	if same {
		from := len(sh.cands)
		visited, now, err := src.TailShard(shard, sh.mark.Next, t.match)
		if err != nil {
			return walk{matched: t.matched, from: from, err: err}
		}
		if visited == now.Sum-sh.mark.Sum {
			carried := sh.mark.Len
			sh.mark = now
			return walk{matched: t.matched, carried: carried, from: from}
		}
		sh.cands = sh.cands[:from]
	}
	dropped := len(sh.cands) > 0
	sh.cands = sh.cands[:0]
	var err error
	_, sh.mark, err = src.TailShard(shard, 0, t.match)
	return walk{matched: t.matched, dropped: dropped, err: err}
}

// merge folds a scan's fresh candidates into the retained output. e.out is
// every shard's candidates sorted by domain; fresh holds every candidate
// the scan matched, and drop (nil when empty) the shards re-matched in
// full, whose old entries leave. Each fresh candidate's place in the old
// output is found by binary search, and the runs between those places are
// copied — whole, or filtered by shard tag when some shard is dropped —
// into the spare buffer, which then becomes the output. Over an empty old
// output (a full scan) the sorted fresh slice itself becomes the output.
//
// A snapshot file may list a record twice (snapfmt.Writer keeps both), in
// one shard with one verdict: fresh keeps one copy of a domain per shard.
// One domain from records in two shards ("a.com" and "a.com..") stays
// twice, as in the serial reference.
func (e *Engine) merge(fresh []cand, drop []bool) {
	if len(fresh) == 0 && drop == nil {
		return
	}
	slices.SortFunc(fresh, cmpDomain)
	fresh = slices.CompactFunc(fresh, func(a, b cand) bool { return a.Domain == b.Domain && a.shard == b.shard })
	e.answer = nil
	if len(e.out) == 0 {
		e.out, e.spare = fresh, e.out
		return
	}
	next, old := e.spare[:0], e.out
	keep := func(run []cand) {
		if drop == nil {
			next = append(next, run...)
			return
		}
		for _, c := range run {
			if !drop[c.shard] {
				next = append(next, c)
			}
		}
	}
	for _, c := range fresh {
		i, _ := slices.BinarySearchFunc(old, c, cmpDomain)
		keep(old[:i])
		next, old = append(next, c), old[i:]
	}
	keep(old)
	e.out, e.spare = next, e.out
}
