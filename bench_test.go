// Package squatphi's root benchmark harness: one benchmark per paper table
// and figure (regenerating the artifact through its experiment driver) plus
// the ablation benchmarks called out in DESIGN.md §4.
//
// The environment — world, DNS scan, crawl, ground truth, classifier,
// detection — is built once and shared; each benchmark then measures the
// artifact regeneration itself. Run with:
//
//	go test -bench=. -benchmem
package squatphi

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"squatphi/internal/brands"
	"squatphi/internal/confusables"
	"squatphi/internal/core"
	"squatphi/internal/crawler"
	"squatphi/internal/dnsx"
	"squatphi/internal/experiments"
	"squatphi/internal/features"
	"squatphi/internal/imghash"
	"squatphi/internal/ml"
	"squatphi/internal/punycode"
	"squatphi/internal/render"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// env returns the shared experiment environment, warming the expensive
// pipeline stages on first use so individual benchmarks measure artifact
// regeneration, not world construction.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(core.Config{
			World:           webworld.Config{SquattingDomains: 1500, NonSquattingPhish: 250, Seed: 2018},
			DNSNoiseRecords: 4000,
			ForestTrees:     15,
			CrawlWorkers:    16,
			Seed:            31,
		})
		if benchErr != nil {
			return
		}
		// Warm all lazy stages.
		if _, benchErr = benchEnv.Detection(); benchErr != nil {
			return
		}
		_, benchErr = benchEnv.ModelEvals()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// benchDriver measures one experiment driver end to end.
func benchDriver(b *testing.B, id string) {
	e := env(b)
	var driver experiments.Driver
	for _, d := range experiments.All() {
		if d.ID == id {
			driver = d
			break
		}
	}
	if driver.Run == nil {
		b.Fatalf("no driver for %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkTable1SquattingExamples(b *testing.B)  { benchDriver(b, "Table 1") }
func BenchmarkFigure2SquatScan(b *testing.B)         { benchDriver(b, "Figure 2") }
func BenchmarkFigure3BrandAccumulation(b *testing.B) { benchDriver(b, "Figure 3") }
func BenchmarkFigure4TopBrands(b *testing.B)         { benchDriver(b, "Figure 4") }
func BenchmarkTable2Crawl(b *testing.B)              { benchDriver(b, "Table 2") }
func BenchmarkTable3RedirectOriginal(b *testing.B)   { benchDriver(b, "Table 3") }
func BenchmarkTable4RedirectMarket(b *testing.B)     { benchDriver(b, "Table 4") }
func BenchmarkFigure5FeedAccumulation(b *testing.B)  { benchDriver(b, "Figure 5") }
func BenchmarkFigure6FeedAlexaRanks(b *testing.B)    { benchDriver(b, "Figure 6") }
func BenchmarkFigure7FeedSquatting(b *testing.B)     { benchDriver(b, "Figure 7") }
func BenchmarkTable5FeedReverify(b *testing.B)       { benchDriver(b, "Table 5") }
func BenchmarkFigure8LayoutExample(b *testing.B)     { benchDriver(b, "Figure 8") }
func BenchmarkFigure9ImageHash(b *testing.B)         { benchDriver(b, "Figure 9") }
func BenchmarkTable6Obfuscation(b *testing.B)        { benchDriver(b, "Table 6") }
func BenchmarkTable7Classifiers(b *testing.B)        { benchDriver(b, "Table 7") }
func BenchmarkFigure10ROC(b *testing.B)              { benchDriver(b, "Figure 10") }
func BenchmarkTable8Detection(b *testing.B)          { benchDriver(b, "Table 8") }
func BenchmarkTable9PerBrand(b *testing.B)           { benchDriver(b, "Table 9") }
func BenchmarkFigure11BrandCDF(b *testing.B)         { benchDriver(b, "Figure 11") }
func BenchmarkFigure12PhishSquatTypes(b *testing.B)  { benchDriver(b, "Figure 12") }
func BenchmarkFigure13TopTargets(b *testing.B)       { benchDriver(b, "Figure 13") }
func BenchmarkTable10Examples(b *testing.B)          { benchDriver(b, "Table 10") }
func BenchmarkFigure14CaseStudies(b *testing.B)      { benchDriver(b, "Figure 14") }
func BenchmarkFigure15Geolocation(b *testing.B)      { benchDriver(b, "Figure 15") }
func BenchmarkFigure16Registration(b *testing.B)     { benchDriver(b, "Figure 16") }
func BenchmarkFigure17Liveness(b *testing.B)         { benchDriver(b, "Figure 17") }
func BenchmarkTable11EvasionCompare(b *testing.B)    { benchDriver(b, "Table 11") }
func BenchmarkTable12Blacklists(b *testing.B)        { benchDriver(b, "Table 12") }
func BenchmarkTable13LivenessTimeline(b *testing.B)  { benchDriver(b, "Table 13") }

// --- ablation benchmarks (DESIGN.md §4) ---

// obfuscatedTrainingSet builds a corpus where positives and negatives are
// BOTH login pages with identical markup except for the logo image:
// phishing logos carry a protected brand name, benign logos a neutral
// service name. The brand exists only in pixels, so lexical and form
// features cannot separate the classes — only the OCR path can. This is
// the paper's headline design choice distilled to its purest form.
func obfuscatedTrainingSet(n int) ([]features.Sample, []int) {
	rng := simrand.New(77)
	var samples []features.Sample
	var labels []int
	phishLogos := []string{"Paypal", "Facebook", "Google", "Citibank"}
	benignLogos := []string{"Webmail", "Intranet", "Forum", "Portal"}
	for i := 0; i < n; i++ {
		label := i % 2
		logo := benignLogos[(i/2)%len(benignLogos)]
		if label == 1 {
			logo = phishLogos[(i/2)%len(phishLogos)]
		}
		html := fmt.Sprintf(`<html><head><title>Sign in</title></head><body>
<img src="/logo.png" alt=""><h1>Welcome back</h1>
<p>Enter your credentials to continue session %d</p>
<form><input type=email placeholder="Email"><input type=password placeholder="Password">
<input type=submit value="Sign In"></form></body></html>`, rng.Intn(1000))
		shot := render.Screenshot(html, render.Options{Assets: map[string]string{"/logo.png": logo}})
		samples = append(samples, features.Sample{HTML: html, Shot: shot})
		labels = append(labels, label)
	}
	return samples, labels
}

// ablationEval trains and cross-validates a forest under a feature option
// set, returning the AUC.
func ablationEval(samples []features.Sample, labels []int, opts features.Options) float64 {
	ex := features.NewExtractor(opts, samples, []string{"paypal", "facebook", "google", "citibank"}, 2)
	X := make([][]float64, len(samples))
	for i, s := range samples {
		X[i] = ex.Vector(s)
	}
	ev := ml.CrossValidate(func() ml.Classifier { return &ml.RandomForest{NTrees: 15, Seed: 5} }, X, labels, 5, 9)
	return ev.AUC
}

// BenchmarkAblationOCR compares the classifier with and without OCR
// features on a fully string-obfuscated corpus — the paper's headline
// design choice. The AUC of each variant is reported as a custom metric.
func BenchmarkAblationOCR(b *testing.B) {
	samples, labels := obfuscatedTrainingSet(60)
	var withOCR, withoutOCR float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withOCR = ablationEval(samples, labels, features.AllFeatures())
		withoutOCR = ablationEval(samples, labels, features.Options{UseLexical: true, UseForms: true})
	}
	b.ReportMetric(withOCR, "auc-with-ocr")
	b.ReportMetric(withoutOCR, "auc-without-ocr")
}

// BenchmarkAblationSpellcheck measures OCR token extraction with and
// without spell-checking on noisy captures.
func BenchmarkAblationSpellcheck(b *testing.B) {
	html := `<html><body><img src="/l.png"><form><input type=password placeholder="Password"><input type=submit value="Log In"></form></body></html>`
	shot := render.Screenshot(html, render.Options{Assets: map[string]string{"/l.png": "Paypal"}, NoiseLevel: 0.02, NoiseSeed: 3})
	corpus := []features.Sample{{HTML: html, Shot: shot}}
	for _, variant := range []struct {
		name string
		opts features.Options
	}{
		{"with-spellcheck", features.Options{UseOCR: true, Spellcheck: true}},
		{"without-spellcheck", features.Options{UseOCR: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			ex := features.NewExtractor(variant.opts, corpus, []string{"paypal"}, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ex.Tokens(corpus[0])
			}
		})
	}
}

// BenchmarkAblationForest sweeps the random-forest size, reporting AUC per
// configuration alongside the training cost.
func BenchmarkAblationForest(b *testing.B) {
	samples, labels := obfuscatedTrainingSet(60)
	ex := features.NewExtractor(features.AllFeatures(), samples, []string{"paypal"}, 2)
	X := make([][]float64, len(samples))
	for i, s := range samples {
		X[i] = ex.Vector(s)
	}
	for _, trees := range []int{5, 20, 80} {
		b.Run(fmt.Sprintf("trees-%d", trees), func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				ev := ml.CrossValidate(func() ml.Classifier { return &ml.RandomForest{NTrees: trees, Seed: 5} }, X, labels, 5, 9)
				auc = ev.AUC
			}
			b.ReportMetric(auc, "auc")
		})
	}
}

// BenchmarkAblationConfusables compares homograph recall of the full
// confusables table against a DNSTwist-style truncated table (the paper:
// DNSTwist knows 13 of 23 lookalikes for 'a').
func BenchmarkAblationConfusables(b *testing.B) {
	brand := squat.NewBrand("facebook.com")
	gen := squat.NewGenerator()
	planted := gen.Homographs(brand)
	full := squat.NewMatcher([]squat.Brand{brand})
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		hit := 0
		for _, c := range planted {
			if _, ok := full.Match(c.Domain); ok {
				hit++
			}
		}
		recall = float64(hit) / float64(len(planted))
	}
	b.ReportMetric(recall, "homograph-recall")
	b.ReportMetric(float64(confusables.CountVariants('a')), "variants-of-a")
}

// BenchmarkAblationCrawlWorkers sweeps the crawler pool width against the
// shared world server.
func BenchmarkAblationCrawlWorkers(b *testing.B) {
	e := env(b)
	domains := e.P.CandidateDomains()
	if len(domains) > 150 {
		domains = domains[:150]
	}
	for _, workers := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			c := &crawler.Crawler{Client: e.P.Server.Client(), Workers: workers, SkipRender: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Crawl(e.Ctx, domains); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationImageHash compares the three perceptual hashes on the
// layout-obfuscation task: distance separation between identical and
// obfuscated renders.
func BenchmarkAblationImageHash(b *testing.B) {
	html := `<html><head><title>Bank Login</title></head><body><h1>Welcome</h1>
<p>Sign in to continue to your account dashboard and payments</p>
<form><input type=email placeholder="Email"><input type=password placeholder="Password">
<input type=submit value="Sign In"></form></body></html>`
	orig := render.Screenshot(html, render.Options{})
	same := render.Screenshot(html, render.Options{})
	obf := render.Screenshot(html, render.Options{Perturb: simrand.New(5)})
	for name, fn := range map[string]func(*render.Raster) imghash.Hash{
		"average": imghash.Average, "difference": imghash.Difference, "perceptual": imghash.Perceptual,
	} {
		b.Run(name, func(b *testing.B) {
			var sep float64
			for i := 0; i < b.N; i++ {
				dSame := imghash.Distance(fn(orig), fn(same))
				dObf := imghash.Distance(fn(orig), fn(obf))
				sep = float64(dObf - dSame)
			}
			b.ReportMetric(sep, "bit-separation")
		})
	}
}

// BenchmarkPunycodeRoundTrip measures the IDN translation hot path of the
// homograph matcher.
func BenchmarkPunycodeRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ace, _ := punycode.ToASCII("fàcebook.com")
		_ = punycode.ToUnicode(ace)
	}
}

// BenchmarkMatcherThroughput measures DNS-scale matching over the bench
// world's snapshot: the paper scans 224M records, so records/sec is the
// number that decides feasibility.
func BenchmarkMatcherThroughput(b *testing.B) {
	e := env(b)
	domains := e.P.DNSSnapshot().Domains()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range domains {
			e.P.Matcher.Match(d)
		}
	}
	b.ReportMetric(float64(len(domains)), "records/op")
}

// BenchmarkMatchMissUniverse is the miss path as scan-zone runs it: the
// full brand universe (850 brands, a 489K-key label index) against noise
// records served from one flat arena, the way snapfmt hands them over. The
// five-brand BenchmarkMatchMiss in internal/squat never leaves L1; this one
// is the number a scan pays. make bench-check gates its allocs/op at 0.
func BenchmarkMatchMissUniverse(b *testing.B) {
	m := squat.NewMatcher(brands.Select(brands.DefaultConfig()).SquatBrands())
	var arena []byte
	var ends []int
	var s squat.Scratch
	dnsx.StreamSnapshot(dnsx.SnapshotSpec{NoiseRecords: 1 << 18, Seed: 1}, func(domain string, _ [4]byte) bool {
		if _, hit := m.MatchBytes([]byte(domain), &s); !hit {
			arena = append(arena, domain...)
			ends = append(ends, len(arena))
		}
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i, lo := 0, 0; i < b.N; i++ {
		hi := ends[i%len(ends)]
		m.MatchBytes(arena[lo:hi:hi], &s)
		lo = hi % len(arena)
	}
}

// --- parallel-spine benchmarks (scan, scoring, forest training) ---

// scanWorkerCounts is the sweep ISSUE'd for BENCH_scan: serial, half the
// cores, all cores (deduplicated on small machines).
func scanWorkerCounts() []int {
	ncpu := runtime.GOMAXPROCS(0)
	counts := []int{1}
	if half := ncpu / 2; half > 1 {
		counts = append(counts, half)
	}
	if ncpu > 1 {
		counts = append(counts, ncpu)
	}
	return counts
}

// BenchmarkScanDNS measures the sharded candidate scan across worker
// counts; the parallel path must return a byte-identical candidate slice,
// so records/sec is the only thing that varies.
func BenchmarkScanDNS(b *testing.B) {
	e := env(b)
	snapshot := e.P.DNSSnapshot()
	records := float64(snapshot.Len())
	for _, workers := range scanWorkerCounts() {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ScanStore(snapshot, e.P.Matcher, workers, nil)
			}
			b.ReportMetric(records*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}

// BenchmarkDetect measures in-the-wild detection (crawl reuse + parallel
// classifier scoring of every capture) at serial and full-width scoring.
func BenchmarkDetect(b *testing.B) {
	e := env(b)
	clf, err := e.Classifier()
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("score-workers-%d", workers), func(b *testing.B) {
			prev := e.P.Cfg.ScoreWorkers
			e.P.Cfg.ScoreWorkers = workers
			defer func() { e.P.Cfg.ScoreWorkers = prev }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.P.DetectInWild(e.Ctx, clf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestFit measures random-forest training at serial and
// full-width tree parallelism (identical ensembles either way).
func BenchmarkForestFit(b *testing.B) {
	rng := simrand.New(41)
	const n, dim = 300, 40
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if rng.Bool(0.5) {
			y[i] = 1
			row[0] += 2
		}
		X[i] = row
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rf := &ml.RandomForest{NTrees: 40, Seed: 11, Workers: workers}
				rf.Fit(X, y)
			}
		})
	}
}
