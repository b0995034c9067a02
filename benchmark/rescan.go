package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/deltascan"
	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// Frozen sizes of rescan-delta. The issue sized the store at 2M noise
// draws; a spill of that store takes ~6 s to save and load, which the
// driver's time cap has no room for, so the store is a fifth of that.
const (
	rescanNoiseDraws = 400_000
	rescanShards     = 2048
	// rescanChurnPerMille is the share of records touched per epoch, in
	// thousandths: 0.1%, half re-pointed, half new registrations.
	rescanChurnPerMille = 1
	// rescanCycleEpochs warm epochs are followed by one spill round trip
	// (the squatd restart path); whole cycles repeat until time is up.
	rescanCycleEpochs = 50
)

// rescanWorkload is rescan-delta: a sharded store churned in place, each
// epoch re-scanned by a warm deltascan.Engine, with a Save/Load/Scan
// round trip closing every cycle.
type rescanWorkload struct {
	matcher *squat.Matcher
	store   *dnsx.Store
	engine  *deltascan.Engine
	domains []string // the store's domains at generation, for re-pointing
	epoch   uint64   // churn epochs applied so far
	sha     string
	sizes   map[string]int64

	generateS, coldMS float64
}

// churnOp is one Store.Add of an epoch's churn.
type churnOp struct {
	domain string
	ip     [4]byte
}

// churnEpoch is the deterministic churn of one epoch: n records, the even
// ones existing domains re-pointed to a fresh IP, the odd ones new
// registrations.
func churnEpoch(seed, epoch uint64, domains []string, n int) []churnOp {
	r := simrand.New(seed).Split("churn").SplitN(epoch)
	ops := make([]churnOp, n)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = churnOp{domains[r.Intn(len(domains))], dnsx.RandomIP(r)}
		} else {
			ops[i] = churnOp{r.Letters(6+r.Intn(8)) + ".com", dnsx.RandomIP(r)}
		}
	}
	return ops
}

func (w *rescanWorkload) setup(rc *runCtx) error {
	sb := universe().SquatBrands()
	rc.timed("squat.NewMatcher", func() { w.matcher = squat.NewMatcher(sb) })
	spec := zoneSpec(sb, rescanNoiseDraws, rc.seed)
	spec.Shards = rescanShards
	spec.Workers = rc.workers
	w.generateS = rc.timed("dnsx.GenerateSnapshot", func() { w.store = dnsx.GenerateSnapshot(spec) }).Seconds()
	// Shard by shard: Store.Domains and Store.Range merge 2048 shards back
	// into insertion order, which costs a second each and is not needed.
	h := sha256.New()
	w.domains = w.domains[:0]
	for s := 0; s < w.store.NumShards(); s++ {
		w.store.RangeShard(s, func(r dnsx.Record) bool {
			w.domains = append(w.domains, r.Domain)
			h.Write([]byte(r.Domain))
			h.Write(r.IP[:])
			return true
		})
	}
	w.sha = hex.EncodeToString(h.Sum(nil))
	w.engine = deltascan.NewEngine()
	w.coldMS = ms(rc.timed("deltascan.Engine.Scan.cold", func() { w.engine.Scan(w.store, w.matcher, rc.workers) }))
	w.epoch = 0

	w.sizes = map[string]int64{
		"noise_draws":     rescanNoiseDraws,
		"planted":         int64(len(spec.Planted)),
		"records":         int64(w.store.Len()),
		"shards":          rescanShards,
		"churn_per_epoch": int64(w.churnSize()),
		"cycle_epochs":    rescanCycleEpochs,
	}
	return nil
}

func (w *rescanWorkload) churnSize() int {
	return len(w.domains) * rescanChurnPerMille / 1000
}

func (w *rescanWorkload) teardown(*runCtx) { w.store, w.engine, w.domains = nil, nil, nil }

func (w *rescanWorkload) describe() (string, map[string]int64) { return w.sha, w.sizes }

func (w *rescanWorkload) fingerprints() (uint64, uint64) { return w.matcher.Fingerprint(), 0 }

// cycleStats is what one cycle of the measured phase yields.
type cycleStats struct {
	wallS                 float64   // timed work of the cycle: adds, scans, spill
	epochUS               []float64 // one warm Engine.Scan each
	addNS                 float64   // Store.Add time, summed
	adds                  int
	saveMS, loadMS        float64
	roundtripMS           float64
	spillBytes            int
	stats                 []deltascan.Stats // LastStats of each epoch
	fullScanAfterLoad     bool
	candidatesAfterReload []squat.Candidate
}

// cycle applies rescanCycleEpochs epochs of churn, each followed by a warm
// scan, then spills the engine and resumes from the spill.
func (w *rescanWorkload) cycle(rc *runCtx) (*cycleStats, error) {
	cs := &cycleStats{}
	n := w.churnSize()
	for e := 0; e < rescanCycleEpochs; e++ {
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		ops := churnEpoch(rc.seed, w.epoch, w.domains, n) // generated outside the timed region
		w.epoch++
		dAdd := rc.timed("dnsx.Store.Add", func() {
			for _, op := range ops {
				w.store.Add(op.domain, op.ip)
			}
		})
		dScan := rc.timed("deltascan.Engine.Scan", func() { w.engine.Scan(w.store, w.matcher, rc.workers) })
		cs.addNS += float64(dAdd.Nanoseconds())
		cs.adds += len(ops)
		cs.epochUS = append(cs.epochUS, us(dScan))
		cs.stats = append(cs.stats, w.engine.LastStats())
		cs.wallS += dAdd.Seconds() + dScan.Seconds()
	}

	var buf bytes.Buffer
	var serr, lerr error
	var loaded *deltascan.Engine
	dSave := rc.timed("deltascan.Engine.Save", func() { serr = w.engine.Save(&buf) })
	if serr != nil {
		return nil, serr
	}
	cs.spillBytes = buf.Len()
	dLoad := rc.timed("deltascan.Load", func() { loaded, lerr = deltascan.Load(&buf) })
	if lerr != nil {
		return nil, lerr
	}
	dScan := rc.timed("deltascan.Engine.Scan.reloaded", func() {
		cs.candidatesAfterReload = loaded.Scan(w.store, w.matcher, rc.workers)
	})
	cs.fullScanAfterLoad = loaded.LastStats().FullScan
	w.engine = loaded
	cs.saveMS, cs.loadMS = ms(dSave), ms(dLoad)
	cs.roundtripMS = ms(dSave + dLoad + dScan)
	cs.wallS += (dSave + dLoad + dScan).Seconds()
	return cs, nil
}

func (w *rescanWorkload) measure(rc *runCtx, d time.Duration) (*measured, error) {
	m := &measured{counts: map[string]int64{}, tallies: map[string]int64{}, layer: map[string]float64{}}
	var cycleRates, roundtrips, saves, loads []float64
	var last *cycleStats
	var first *cycleStats
	addNS, adds := 0.0, 0
	start := time.Now()
	for {
		cs, err := w.cycle(rc)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = cs
		}
		last = cs
		m.opUS = append(m.opUS, cs.epochUS...)
		cycleRates = append(cycleRates, rescanCycleEpochs/cs.wallS)
		roundtrips = append(roundtrips, cs.roundtripMS)
		saves = append(saves, cs.saveMS)
		loads = append(loads, cs.loadMS)
		addNS += cs.addNS
		adds += cs.adds
		m.attempted += rescanCycleEpochs + 1
		if cs.fullScanAfterLoad {
			m.failed++ // the spill did not carry the engine's state across
		}
		if time.Since(start) >= d {
			break
		}
		// Untimed: the engine the reload replaced is garbage now; every
		// cycle starts from a collected heap so that peak RSS does not
		// depend on where in its cycle the collector was left.
		runtime.GC()
	}
	m.throughput, m.throughputN = median(cycleRates), len(cycleRates)

	// Oracle: after all that churn and reloading, the incremental result
	// is exactly a cold scan of the store as it now stands.
	var cold []squat.Candidate
	dCold := rc.timed("core.ScanStore", func() { cold = core.ScanStore(w.store, w.matcher, rc.workers, nil) })
	m.attempted++
	if !reflect.DeepEqual(last.candidatesAfterReload, cold) {
		m.failed++
	}
	if len(cold) == 0 {
		return nil, errors.New("cold scan found no candidates; the planted squats are missing")
	}

	// Exact counts come from the first cycle, which every run completes
	// with the same churn, so they repeat bit for bit for a seed.
	var walked, hits, misses, skipped, rescanned int64
	walkUS := 0.0
	for i, st := range first.stats {
		walked += int64(st.RecordsWalked)
		hits += int64(st.CacheHits)
		misses += int64(st.CacheMisses)
		skipped += int64(st.ShardsSkipped)
		rescanned += int64(st.ShardsRescanned)
		walkUS += first.epochUS[i]
	}
	m.tallies["candidates"] = int64(len(cold)) // of the store as the last epoch left it
	m.tallies["cycles"] = int64(len(cycleRates))
	m.counts["first_cycle_records_walked"] = walked
	m.counts["first_cycle_cache_hits"] = hits
	m.counts["first_cycle_cache_misses"] = misses
	m.counts["first_cycle_shards_skipped"] = skipped
	m.counts["first_cycle_shards_rescanned"] = rescanned

	m.layer["deltascan.epoch_p50_ms"] = median(m.opUS) / 1e3
	m.layer["deltascan.epoch_p95_ms"] = percentile(m.opUS, 95) / 1e3
	m.layer["deltascan.records_walked"] = float64(walked)
	if walked > 0 {
		m.layer["deltascan.walk_ns_per_rec"] = walkUS * 1e3 / float64(walked)
		m.layer["deltascan.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	m.layer["deltascan.shard_skip_ratio"] = float64(skipped) / float64(skipped+rescanned)
	m.layer["deltascan.warm_speedup"] = ms(dCold) / (median(m.opUS) / 1e3)
	m.layer["deltascan.save_ms"] = median(saves)
	m.layer["deltascan.load_ms"] = median(loads)
	m.layer["deltascan.spill_bytes"] = float64(first.spillBytes)
	m.layer["deltascan.spill_roundtrip_ms"] = median(roundtrips)
	m.layer["dnsx.add_ns"] = addNS / float64(adds)
	return m, nil
}

func (w *rescanWorkload) probe(rc *runCtx, base *measured, out map[string]float64) error {
	out["dnsx.generate_mrec_per_s"] = rescanNoiseDraws / w.generateS / 1e6
	out["deltascan.cold_scan_ms"] = w.coldMS

	var nochange []float64
	for i := 0; i < 5; i++ {
		nochange = append(nochange, us(rc.timed("deltascan.Engine.Scan.nochange", func() {
			w.engine.Scan(w.store, w.matcher, rc.workers)
		})))
	}
	out["deltascan.warm_nochange_us"] = median(nochange)

	n := float64(w.store.Len())
	var walks, sums []float64
	for rep := 0; rep < probeReps; rep++ {
		walks = append(walks, float64(rc.timed("dnsx.Store.RangeShard", func() {
			for s := 0; s < w.store.NumShards(); s++ {
				w.store.RangeShard(s, func(dnsx.Record) bool { return true })
			}
		}).Nanoseconds()))
		sums = append(sums, us(rc.timed("dnsx.Store.Checksums", func() { w.store.Checksums() })))
	}
	out["dnsx.range_shard_ns_per_rec"] = median(walks) / n
	out["dnsx.checksums_us"] = median(sums)

	var matches []float64
	for rep := 0; rep < probeReps; rep++ {
		var sc squat.Scratch
		matches = append(matches, float64(rc.timed("squat.MatchString", func() {
			for _, d := range w.domains {
				w.matcher.MatchString(d, &sc)
			}
		}).Nanoseconds()))
	}
	out["squat.match_string_ns_per_rec"] = median(matches) / float64(len(w.domains))
	return nil
}
