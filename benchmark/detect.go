package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/crawler"
	"squatphi/internal/features"
	"squatphi/internal/htmlx"
	"squatphi/internal/ml"
	"squatphi/internal/ocr"
	"squatphi/internal/render"
	"squatphi/internal/webworld"
)

// Frozen sizes of detect-pages. The issue sized the world at 1,500
// squatting domains, where training takes 13 s and one snapshot 9 s; the
// driver's time cap leaves room for a world of 600, a training set of
// about 115 pages and one snapshot in about 2.3 s.
const (
	detectSquatting   = 600
	detectPhish       = 60
	detectBenign      = 60
	detectDNSNoise    = 200_000
	detectTrees       = 40
	detectOracleEvery = 8 // every n-th live page is re-scored serially
	// detectSnapshotsPer10s snapshots are scored per ten seconds of
	// measured phase: the pipeline caches a snapshot's crawl, so the
	// phase is sized by count (fresh snapshots), not by the clock.
	detectSnapshotsPer10s = webworld.Snapshots
)

// detectWorkload is detect-pages: core.Pipeline.DetectInWild over
// snapshots not crawled before — web and mobile capture, render, OCR,
// features and forest for every live, non-redirected page.
type detectWorkload struct {
	p     *core.Pipeline
	clf   *core.Classifier
	gt    *core.GroundTruth
	next  int // next snapshot not yet crawled
	sha   string
	sizes map[string]int64

	groundTruthS, trainS float64
}

func (w *detectWorkload) setup(rc *runCtx) error {
	var err error
	rc.timed("core.New", func() {
		w.p, err = core.New(core.Config{
			World:            webworld.Config{SquattingDomains: detectSquatting, NonSquattingPhish: detectPhish, Seed: rc.seed},
			DNSNoiseRecords:  detectDNSNoise,
			ForestTrees:      detectTrees,
			CrawlWorkers:     rc.workers,
			ScanWorkers:      rc.workers,
			ScoreWorkers:     rc.workers,
			Seed:             rc.seed,
			TraceSampleEvery: -1,
		})
	})
	if err != nil {
		return err
	}
	var candidates int
	rc.timed("core.Pipeline.ScanDNS", func() { candidates = len(w.p.ScanDNS()) })
	w.groundTruthS = rc.timed("core.Pipeline.BuildGroundTruth", func() {
		w.gt, err = w.p.BuildGroundTruth(rc.ctx, detectBenign)
	}).Seconds()
	if err != nil {
		return err
	}
	w.trainS = rc.timed("core.Pipeline.TrainClassifier", func() {
		w.clf = w.p.TrainClassifier(w.gt, features.AllFeatures())
	}).Seconds()
	w.next = 0

	h := sha256.New()
	domains := w.p.CandidateDomains()
	sort.Strings(domains)
	for _, d := range domains {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	w.sha = hex.EncodeToString(h.Sum(nil))
	pos, neg := w.gt.Counts()
	w.sizes = map[string]int64{
		"world_squatting":  detectSquatting,
		"world_phish":      detectPhish,
		"dns_noise":        detectDNSNoise,
		"trees":            detectTrees,
		"candidates":       int64(candidates),
		"ground_truth_pos": int64(pos),
		"ground_truth_neg": int64(neg),
	}
	return nil
}

func (w *detectWorkload) teardown(*runCtx) {
	if w.p != nil {
		w.p.Close()
		w.p = nil
	}
	w.clf, w.gt = nil, nil
}

func (w *detectWorkload) describe() (string, map[string]int64) { return w.sha, w.sizes }

func (w *detectWorkload) fingerprints() (uint64, uint64) { return w.p.Matcher.Fingerprint(), 0 }

// scorable reports whether detection scores the capture.
func scorable(c *crawler.Capture) bool { return c.Live && !c.Redirected() }

func (w *detectWorkload) measure(rc *runCtx, d time.Duration) (*measured, error) {
	// The world's snapshots are all the uncached work there is, so longer
	// phases stop growing at four snapshots; a traced run measures twice
	// and gives each half two.
	most := webworld.Snapshots
	if rc.tr != nil {
		most /= 2
	}
	n := int(d.Seconds()*detectSnapshotsPer10s/10 + 0.5)
	if n < 1 {
		n = 1
	}
	if n > most {
		n = most
	}
	if w.next+n > webworld.Snapshots {
		return nil, fmt.Errorf("the world has %d snapshots; %d already crawled, %d more asked for", webworld.Snapshots, w.next, n)
	}
	m := &measured{counts: map[string]int64{}, layer: map[string]float64{}}
	var pages, flagged, confirmed, checked int64
	wall := 0.0
	for i := 0; i < n; i++ {
		snapshot := w.next
		w.next++
		var det *core.Detection
		var err error
		dt := rc.timed("core.Pipeline.DetectInWild", func() { det, err = w.p.DetectInWild(rc.ctx, w.clf, snapshot) })
		if err != nil {
			return nil, err
		}
		m.opUS = append(m.opUS, us(dt))
		wall += dt.Seconds()

		// Oracle: the crawl is cached now, so every flagged page and every
		// n-th other live page is scored again, serially, through the
		// public single-capture path; the verdicts must agree.
		results, err := w.p.Crawl(rc.ctx, snapshot)
		if err != nil {
			return nil, err
		}
		isFlagged := map[string]bool{}
		for _, f := range det.FlaggedWeb {
			isFlagged[f.Domain+"/web"] = true
		}
		for _, f := range det.FlaggedMobile {
			isFlagged[f.Domain+"/mobile"] = true
		}
		live := 0
		for _, r := range results {
			for _, c := range []struct {
				cap *crawler.Capture
				key string
			}{{&r.Web, r.Domain + "/web"}, {&r.Mobile, r.Domain + "/mobile"}} {
				if !scorable(c.cap) {
					if isFlagged[c.key] {
						m.failed++ // flagged a page detection must skip
					}
					continue
				}
				live++
				if !isFlagged[c.key] && live%detectOracleEvery != 0 {
					continue
				}
				checked++
				if (core.ClassifyCapture(w.clf, *c.cap) >= 0.5) != isFlagged[c.key] {
					m.failed++
				}
			}
		}
		pages += int64(live)
		flagged += int64(len(det.FlaggedWeb) + len(det.FlaggedMobile))
		confirmed += int64(len(det.ConfirmedUnion()))
		// Untimed: every snapshot starts from a collected heap, so the
		// peak RSS is live data plus one collector cycle's slack, not
		// wherever in its cycle the previous snapshot left the collector.
		runtime.GC()
	}
	if pages == 0 {
		return nil, errors.New("no live page was scored; the world is empty")
	}
	m.attempted = pages
	m.throughput, m.throughputN = float64(pages)/wall, n
	m.counts["snapshots"] = int64(n)
	m.counts["pages"] = pages
	m.counts["flagged"] = flagged
	m.counts["confirmed"] = confirmed
	m.counts["oracle_checked"] = checked
	m.layer["core.detect_pages_per_s"] = m.throughput
	m.layer["core.detect_flagged"] = float64(flagged)
	m.layer["core.detect_confirmed"] = float64(confirmed)
	return m, nil
}

// detectProbePages bounds how many pages the per-page probes time.
const detectProbePages = 40

func (w *detectWorkload) probe(rc *runCtx, base *measured, out map[string]float64) error {
	out["core.ground_truth_s"] = w.groundTruthS
	out["core.train_s"] = w.trainS

	// Capture a sample of the candidates at snapshot 0, with and without
	// rendering, through a crawler of our own on the world's transport.
	domains := w.p.CandidateDomains()
	sort.Strings(domains)
	if len(domains) > detectProbePages {
		step := len(domains) / detectProbePages
		var pick []string
		for i := 0; i < len(domains) && len(pick) < detectProbePages; i += step {
			pick = append(pick, domains[i])
		}
		domains = pick
	}
	w.p.Server.SetSnapshot(0)
	full := &crawler.Crawler{Client: w.p.Server.Client(), Workers: 1}
	fetchOnly := &crawler.Crawler{Client: w.p.Server.Client(), Workers: 1, SkipRender: true}
	var captureMS, fetchMS []float64
	var caps []crawler.Capture
	for _, d := range domains {
		var c crawler.Capture
		captureMS = append(captureMS, ms(rc.timed("crawler.CaptureProfile", func() { c = full.CaptureProfile(rc.ctx, d, false) })))
		fetchMS = append(fetchMS, ms(rc.timed("crawler.CaptureProfile.fetch", func() { fetchOnly.CaptureProfile(rc.ctx, d, false) })))
		if scorable(&c) && c.Shot != nil {
			caps = append(caps, c)
		}
	}
	if len(caps) == 0 {
		return errors.New("no live page among the probe sample")
	}
	out["crawler.capture_ms"] = median(captureMS)
	out["crawler.fetch_ms"] = median(fetchMS)

	var extractUS, renderMS, ocrMS, tokensMS, vectorMS, predictUS []float64
	var engine ocr.Engine
	for i := range caps {
		c := &caps[i]
		var page *htmlx.Page
		extractUS = append(extractUS, us(rc.timed("htmlx.Extract", func() { page = htmlx.Extract(c.HTML) })))
		renderMS = append(renderMS, ms(rc.timed("render.RenderPage", func() { render.RenderPage(page, render.Options{Assets: c.Assets}) })))
		ocrMS = append(ocrMS, ms(rc.timed("ocr.Engine.Recognize", func() { engine.Recognize(c.Shot) })))
		s := features.Sample{HTML: c.HTML, Shot: c.Shot}
		tokensMS = append(tokensMS, ms(rc.timed("features.Extractor.Tokens", func() { w.clf.Extractor.Tokens(s) })))
		var vec []float64
		vectorMS = append(vectorMS, ms(rc.timed("features.Extractor.Vector", func() { vec = w.clf.Extractor.Vector(s) })))
		predictUS = append(predictUS, us(rc.timed("ml.PredictProba", func() { w.clf.Model.PredictProba(vec) })))
	}
	out["htmlx.extract_us"] = median(extractUS)
	out["render.page_ms"] = median(renderMS)
	out["ocr.recognize_ms"] = median(ocrMS)
	out["features.tokens_ms"] = median(tokensMS)
	out["features.vector_ms"] = median(vectorMS)
	out["ml.predict_us"] = median(predictUS)

	// Fit a forest of the pipeline's size on the ground truth's vectors.
	var X [][]float64
	var y []int
	for _, s := range w.gt.Samples {
		X = append(X, w.clf.Extractor.Vector(s.Sample))
		label := 0
		if s.Phishing {
			label = 1
		}
		y = append(y, label)
	}
	forest := &ml.RandomForest{NTrees: detectTrees, Seed: rc.seed, Workers: rc.workers}
	out["ml.fit_ms"] = ms(rc.timed("ml.RandomForest.Fit", func() { forest.Fit(X, y) }))
	return nil
}
