// Package core implements SquatPhi, the paper's end-to-end measurement
// system: brand selection, squatting-domain detection over a DNS snapshot,
// distributed web+mobile crawling, ground-truth construction from the
// crowdsourced feed, classifier training with OCR/lexical/form features,
// detection of squatting phishing in the wild, and the follow-up analyses
// (evasion, blacklists, liveness).
//
// Each pipeline stage is an explicit method returning its artifact, so the
// experiment drivers (internal/experiments) can reproduce individual
// tables and figures without re-running the whole system, while cmd/
// binaries run it end to end.
package core

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	rtrace "runtime/trace"
	"sync"
	"time"

	"squatphi/internal/blacklist"
	"squatphi/internal/crawler"
	"squatphi/internal/deltascan"
	"squatphi/internal/dnsx"
	"squatphi/internal/domlm"
	"squatphi/internal/obs"
	"squatphi/internal/obs/trace"
	"squatphi/internal/phishtank"
	"squatphi/internal/render"
	"squatphi/internal/snapfmt"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

// Config parameterises a pipeline run.
type Config struct {
	// World configures the synthetic Internet.
	World webworld.Config
	// DNSNoiseRecords is the number of unrelated background DNS records
	// mixed into the snapshot (the 224M-record haystack, scaled down).
	DNSNoiseRecords int
	// ForestTrees is the random-forest size (default 40).
	ForestTrees int
	// CrawlWorkers is the crawler pool width (default 16). On a fresh
	// crawl, detection and liveness score each page on these workers
	// right after it is captured.
	CrawlWorkers int
	// ScanWorkers is the DNS scan and snapshot-generation parallelism:
	// store shards are scanned by this many goroutines. <= 0 means
	// GOMAXPROCS. The scan result is identical for every value.
	ScanWorkers int
	// ScoreWorkers bounds the classifier-scoring pool used by feature
	// extraction and by detection over an already cached crawl (<= 0
	// means GOMAXPROCS; 1 forces serial scoring); a fresh crawl is scored
	// on the crawl workers instead. Results are identical for every value.
	ScoreWorkers int
	// DomLM trains a brand-language model (internal/domlm) over the
	// monitored brand universe and attaches it to the matcher: scan
	// misses are scored for brand-likeness and promoted to the Generated
	// squatting type at domlm.DefaultThreshold. The score also joins the
	// classifier feature vector (features.Options.UseDomLM) and every
	// Explain/provenance record. Off by default: the paper's five-type
	// system is the baseline configuration.
	DomLM bool
	// DomLMThreshold overrides the generated-squat promotion threshold
	// when DomLM is on (<= 0 means domlm.DefaultThreshold).
	DomLMThreshold float64
	// DNSBrandNoise mixes this many brand-adjacent hard negatives into
	// the DNS snapshot when DomLM is on (dnsx.SnapshotSpec.BrandNoise):
	// benign registrations scored just below the promotion threshold,
	// pressuring the precision of generated-squat detection. 0 = none.
	DNSBrandNoise int
	// Seed drives feed generation and training randomness.
	Seed uint64
	// Metrics, when set, is the registry every pipeline component reports
	// to; nil means the pipeline creates its own (always available via
	// Pipeline.Obs). Sharing one registry lets a command aggregate DNS,
	// matcher, crawler, and stage metrics behind one debug endpoint.
	Metrics *obs.Registry
	// TraceSampleEvery is the verdict-provenance head-sampling period: one
	// scanned domain in every TraceSampleEvery gets a scan-provenance
	// mark. Domains are selected by name hash, so the sampled set is
	// identical at any worker count. 0 selects the default (1 in 64);
	// negative disables scan sampling. Flagged verdicts always get a full
	// evidence record regardless of this setting.
	TraceSampleEvery int
	// Events, when set, receives the pipeline's structured event log, the
	// crawler's events under With("component", "crawler"); events carrying
	// a domain attribute are also attributed into that domain's
	// provenance record (trace.EventHandler). nil disables event logging;
	// provenance records still accumulate.
	Events *slog.Logger
}

// Pipeline is one instantiated SquatPhi system bound to a synthetic world.
type Pipeline struct {
	Cfg        Config
	World      *webworld.World
	Server     *webworld.Server
	Feed       *phishtank.Feed
	Matcher    *squat.Matcher
	Blacklists *blacklist.Service
	// LM is the brand-language model attached to the matcher (nil unless
	// Config.DomLM). It is immutable and shared by every scan worker.
	LM *domlm.Model

	// Obs is the metrics registry all pipeline components report to;
	// always non-nil and ready to serve via obs.Serve.
	Obs *obs.Registry
	// Prov is the verdict-provenance collector: head-sampled scan marks
	// plus always-on evidence records for flagged verdicts. Always
	// non-nil; persist it with trace.Collector.WriteStore.
	Prov *trace.Collector
	// Events is the structured event log: Config.Events routed through
	// trace.EventHandler into Prov, or a logger that discards everything
	// when Config.Events is nil. Never nil.
	Events *slog.Logger

	crawlerByProfile *crawler.Crawler

	// delta is the delta-scan engine ScanDNS goes through.
	delta *deltascan.Engine

	// Caches.
	snapshot      *dnsx.Store
	candidates    []squat.Candidate
	crawls        map[int][]crawler.Result
	originalShots map[string]*render.Raster

	stageMu  sync.Mutex
	stageDur map[string]time.Duration
}

// New builds the world, starts its HTTP server, and prepares the pipeline.
// Callers must Close it.
func New(cfg Config) (*Pipeline, error) {
	if cfg.ForestTrees <= 0 {
		cfg.ForestTrees = 40
	}
	if cfg.DNSNoiseRecords <= 0 {
		cfg.DNSNoiseRecords = 30000
	}
	world := webworld.Build(cfg.World)
	server, err := webworld.NewServer(world)
	if err != nil {
		return nil, fmt.Errorf("core: start world server: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pipeline{
		Cfg:        cfg,
		World:      world,
		Server:     server,
		Feed:       phishtank.Build(world, cfg.Seed),
		Matcher:    squat.NewMatcher(world.Brands.SquatBrands()),
		Blacklists: blacklist.NewService(),
		Obs:        reg,
		Prov:       trace.NewCollector(cfg.TraceSampleEvery),
		Events:     noEvents,
		delta:      deltascan.NewEngine(),
		crawls:     map[int][]crawler.Result{},
		stageDur:   map[string]time.Duration{},
	}
	if cfg.DomLM {
		// Train deterministically over the brand universe and attach
		// before any instrumentation or sharing: AttachLM folds the model
		// fingerprint into the matcher fingerprint, which deltascan and
		// the provenance records key on.
		p.LM = domlm.Train(world.Brands.Names(), domlm.DefaultConfig())
		p.Matcher.AttachLM(p.LM, cfg.DomLMThreshold)
	}
	p.Matcher.InstrumentMetrics(reg)
	p.Matcher.InstrumentTrace(p.Prov)
	p.delta.InstrumentMetrics(reg)
	p.crawlerByProfile = &crawler.Crawler{
		Client:  server.Client(),
		Workers: cfg.CrawlWorkers,
		Metrics: reg,
	}
	if cfg.Events != nil {
		p.Events = slog.New(trace.EventHandler(cfg.Events.Handler(), p.Prov))
		p.crawlerByProfile.Events = p.Events.With("component", "crawler")
	}
	return p, nil
}

// noEvents is the event log of a pipeline configured without one: it
// enables no level, so an emission builds no record.
var noEvents = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// Close shuts down the world server.
func (p *Pipeline) Close() error { return p.Server.Close() }

// stageTask opens a runtime/trace task for a named pipeline stage (a
// subtask when ctx already carries a stage's task) and times it into the
// "core.stage.<name>_ms" histogram. The returned func must be called when
// the stage ends, with the stage's error if any; the error is logged on
// the task.
func (p *Pipeline) stageTask(ctx context.Context, name string) (context.Context, func(error)) {
	ctx, task := rtrace.NewTask(ctx, name)
	sw := obs.StartStopwatch()
	return ctx, func(err error) {
		defer task.End()
		d := sw.Elapsed()
		p.Obs.Histogram("core.stage."+name+"_ms", obs.MillisBuckets).
			Observe(float64(d) / float64(time.Millisecond))
		p.stageMu.Lock()
		p.stageDur[name] = d
		p.stageMu.Unlock()
		attrs := []any{slog.String("stage", name), slog.Float64("ms", float64(d)/float64(time.Millisecond))}
		if err != nil {
			rtrace.Log(ctx, "error", err.Error())
			attrs = append(attrs, slog.String("error", err.Error()))
			p.Events.Error("core.stage.failed", attrs...)
			return
		}
		p.Events.Debug("core.stage.done", attrs...)
	}
}

// StageTimings returns the most recent wall time of each executed stage,
// the per-stage accounting surfaced in result artifacts (cmd/paperbench
// emits it into its JSON output).
func (p *Pipeline) StageTimings() map[string]time.Duration {
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	out := make(map[string]time.Duration, len(p.stageDur))
	for k, v := range p.stageDur {
		out[k] = v
	}
	return out
}

// scanWorkers resolves the configured DNS-scan parallelism.
func (p *Pipeline) scanWorkers() int {
	if p.Cfg.ScanWorkers > 0 {
		return p.Cfg.ScanWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// scoreWorkers resolves the configured scoring-pool width.
func (p *Pipeline) scoreWorkers() int {
	if p.Cfg.ScoreWorkers > 0 {
		return p.Cfg.ScoreWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// DNSSnapshot lazily builds the ActiveDNS-style snapshot: every resolving
// domain of the world planted among background noise.
func (p *Pipeline) DNSSnapshot() *dnsx.Store {
	if p.snapshot == nil {
		_, done := p.stageTask(context.Background(), "dns_snapshot")
		spec := dnsx.SnapshotSpec{
			Planted:      p.World.DNSDomains(),
			NoiseRecords: p.Cfg.DNSNoiseRecords,
			Seed:         p.Cfg.Seed,
			Workers:      p.scanWorkers(),
		}
		if p.LM != nil && p.Cfg.DNSBrandNoise > 0 {
			spec.BrandNoise = p.LM
			spec.BrandNoiseRecords = p.Cfg.DNSBrandNoise
		}
		p.snapshot = dnsx.GenerateSnapshot(spec)
		p.Obs.Gauge("core.dns_snapshot.records").Set(float64(p.snapshot.Len()))
		done(nil)
	}
	return p.snapshot
}

// ScanStore runs the matcher over every record of store and returns the
// squatting candidates sorted by domain: a fresh deltascan.Engine's first
// Scan, on workers goroutines (<= 0 means GOMAXPROCS; the result is the
// same at every value). reg (nil-tolerant) receives the scan throughput
// gauge core.scan_dns.records_per_sec.
func ScanStore(store *dnsx.Store, m *squat.Matcher, workers int, reg *obs.Registry) []squat.Candidate {
	sw := obs.StartStopwatch()
	out := deltascan.NewEngine().Scan(store, m, workers)
	if secs := sw.Seconds(); secs > 0 {
		reg.Gauge("core.scan_dns.records_per_sec").Set(float64(store.Len()) / secs)
	}
	return out
}

// ScanSnapshot runs the matcher over every record of an mmap'd binary
// snapshot (internal/snapfmt) and returns the squatting candidates sorted
// by domain — the scan path for paper-scale data, where records live in a
// file mapping and are classified in place without a string per record.
// It is a fresh deltascan.Engine's first Scan, so the result is identical
// to ScanStore over a store holding the same records, at any worker count;
// a segment that fails to decode fails the scan with a nil slice. reg
// (nil-tolerant) receives core.scan_snap.records_per_sec.
func ScanSnapshot(snap *snapfmt.Snapshot, m *squat.Matcher, workers int, reg *obs.Registry) ([]squat.Candidate, error) {
	sw := obs.StartStopwatch()
	e := deltascan.NewEngine()
	out := e.Scan(snap, m, workers)
	if err := e.LastStats().Err; err != nil {
		return nil, err
	}
	if secs := sw.Seconds(); secs > 0 {
		reg.Gauge("core.scan_snap.records_per_sec").Set(float64(snap.Len()) / secs)
	}
	return out, nil
}

// ScanDNS runs the squatting matcher over the whole snapshot and returns
// the candidate squatting domains (paper §3.1; Figure 2). The scan goes
// through the pipeline's delta-scan engine on Config.ScanWorkers
// goroutines; the result is cached, and identical to a full scan at
// every worker count.
func (p *Pipeline) ScanDNS() []squat.Candidate {
	if p.candidates == nil {
		snapshot := p.DNSSnapshot() // built under its own stage task
		_, done := p.stageTask(context.Background(), "scan_dns")
		sw := obs.StartStopwatch()
		out := p.delta.Scan(snapshot, p.Matcher, p.scanWorkers())
		if secs := sw.Seconds(); secs > 0 {
			p.Obs.Gauge("core.scan_dns.records_per_sec").Set(float64(snapshot.Len()) / secs)
		}
		p.candidates = out
		p.Obs.Gauge("core.scan_dns.candidates").Set(float64(len(out)))
		sampled, sampledHits := p.Prov.ScanStats()
		p.Events.Info("core.scan.done",
			slog.Int("epoch", p.delta.Epoch()), slog.Int("candidates", len(out)),
			slog.Int64("prov_sampled", sampled), slog.Int64("prov_sampled_hits", sampledHits))
		done(nil)
	}
	return p.candidates
}

// LMScore returns the brand-language-model score of a domain's
// registrable label in [0, 1], or 0 when Config.DomLM is off. It is the
// feature-extraction entry (features.Sample.LMScore): unlike the matcher
// hot path it splits the effective TLD itself.
func (p *Pipeline) LMScore(domain string) float64 {
	if p.LM == nil {
		return 0
	}
	label, _ := squat.SplitETLD(domain)
	return p.LM.ScoreLabel(label)
}

// CandidateDomains returns just the domain names from ScanDNS.
func (p *Pipeline) CandidateDomains() []string {
	cands := p.ScanDNS()
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Domain
	}
	return out
}

// Degraded records substrate-failure thinning for one stage: failed items
// out of total produced no usable output because the network layer gave
// nothing back after retries.
// The counter core.degraded.<stage> and the fraction gauge make partial
// output visible in every metrics snapshot instead of the stage silently
// shrinking; downstream stages keep working on what survived.
func (p *Pipeline) Degraded(stage string, failed, total int) {
	if failed <= 0 || total <= 0 {
		return
	}
	p.Obs.Counter("core.degraded." + stage).Add(int64(failed))
	p.Obs.Gauge("core.degraded." + stage + ".fraction").Set(float64(failed) / float64(total))
}

// transportDead reports whether a capture got no HTTP answer at all —
// the substrate failed (timeouts, resets), as opposed to a
// server that answered with an error status.
func transportDead(c crawler.Capture) bool { return !c.Live && c.StatusCode == 0 }

// countDegraded tallies results where both profiles were transport-dead.
func countDegraded(results []crawler.Result) int {
	n := 0
	for _, r := range results {
		if transportDead(r.Web) && transportDead(r.Mobile) {
			n++
		}
	}
	return n
}

// Crawl crawls all candidate squatting domains (web + mobile) at the given
// snapshot date, with caching (paper §3.2). The cached crawl keeps no
// pixels: each capture's Shot is dropped once the domain is captured, and
// Capture.Screenshot draws it again on demand. Domains the substrate
// swallowed entirely are counted under core.degraded.crawl; the partial
// result set is returned (with the error, if the context was cancelled)
// rather than discarded.
func (p *Pipeline) Crawl(ctx context.Context, snapshot int) ([]crawler.Result, error) {
	results, _, err := p.crawl(ctx, snapshot, nil)
	return results, err
}

// crawl is Crawl that, with clf non-nil, also scores every page (see
// pageScores) into per-index slots: on the crawl worker right after each
// domain is captured when the crawl is fresh, or on the scoring pool over
// a cached crawl.
func (p *Pipeline) crawl(ctx context.Context, snapshot int, clf *Classifier) ([]crawler.Result, [][2]float64, error) {
	if cached, ok := p.crawls[snapshot]; ok {
		var scores [][2]float64
		if clf != nil {
			scores = make([][2]float64, len(cached))
			p.scoreParallel(len(cached), func(i int) { scores[i] = p.pageScores(clf, &cached[i]) })
		}
		return cached, scores, nil
	}
	domains := p.CandidateDomains()
	visit, scores := p.scoreHook(clf, len(domains))
	results, err := p.crawlStage(ctx, "crawl", snapshot, domains, visit)
	if err != nil {
		return results, scores, err
	}
	p.crawls[snapshot] = results
	return results, scores, nil
}

// scoreHook returns a crawl visit hook over n domains that scores each
// domain's pages with clf (when non-nil) into the returned per-index slots,
// counted in core.score.inflight, and then drops both screenshots, so no
// crawled raster outlives its scoring.
func (p *Pipeline) scoreHook(clf *Classifier, n int) (func(i int, r *crawler.Result), [][2]float64) {
	var scores [][2]float64
	if clf != nil {
		scores = make([][2]float64, n)
	}
	inflight := p.Obs.Gauge("core.score.inflight")
	return func(i int, r *crawler.Result) {
		if clf != nil {
			inflight.Add(1)
			scores[i] = p.pageScores(clf, r)
			inflight.Add(-1)
		}
		r.Web.Shot, r.Mobile.Shot = nil, nil
	}, scores
}

// CrawlDomains crawls an arbitrary domain list at a snapshot (used for the
// feed's ground-truth collection and evasion analysis), with the same
// degraded-stage accounting as Crawl under core.degraded.crawl_domains.
// Its captures keep their Shots.
func (p *Pipeline) CrawlDomains(ctx context.Context, snapshot int, domains []string) ([]crawler.Result, error) {
	return p.crawlStage(ctx, "crawl_domains", snapshot, domains, nil)
}

// crawlStage is one crawl of domains at a snapshot with a visit hook,
// timed and degraded-counted as stage (core.stage.<stage>_ms,
// core.degraded.<stage>).
func (p *Pipeline) crawlStage(ctx context.Context, stage string, snapshot int, domains []string, visit func(i int, r *crawler.Result)) ([]crawler.Result, error) {
	ctx, done := p.stageTask(ctx, stage)
	p.Server.SetSnapshot(snapshot)
	results, err := p.crawlerByProfile.Crawl(ctx, domains, visit)
	done(err)
	p.Degraded(stage, countDegraded(results), len(results))
	return results, err
}
