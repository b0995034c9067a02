// Command squatphi runs the full SquatPhi pipeline end to end against a
// synthetic Internet: DNS scan for squatting domains, web+mobile crawl,
// classifier training on the crowdsourced feed, in-the-wild detection, and
// the summary tables.
//
// Usage:
//
//	squatphi [-domains 8000] [-phish 600] [-seed 1175] [-trees 40]
//	         [-explain dom1,dom2] [-trace-out trace.gz] [-events log.jsonl]
//
// -explain prints the verdict-provenance record for the named domains
// after detection; -trace-out persists the full trace store (flagged
// verdicts plus the 1-in-N head sample, adjustable with -trace-sample)
// for later inspection with squatexplain; -events writes the structured
// JSONL event log. With -debug-addr, /debug/verdict?domain=… serves the
// same records over HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/domlm"
	"squatphi/internal/features"
	"squatphi/internal/obs"
	"squatphi/internal/obs/trace"
	"squatphi/internal/report"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("squatphi: ")
	domains := flag.Int("domains", 8000, "approximate squatting-domain population")
	phish := flag.Int("phish", 600, "non-squatting phishing population (feed size)")
	seed := flag.Uint64("seed", 1175, "world seed")
	trees := flag.Int("trees", 40, "random forest size")
	noise := flag.Int("dnsnoise", 30000, "background DNS records")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/verdict and pprof (/debug/pprof/trace for the stage timeline) on this address (e.g. :6060)")
	explain := flag.String("explain", "", "comma-separated domains to explain after detection (verdict provenance, human-readable)")
	traceOut := flag.String("trace-out", "", "write the provenance trace store (gzip+JSONL, readable with squatexplain) to this file")
	eventsOut := flag.String("events", "", "write the structured JSONL event log to this file (- for stderr)")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1-in-N scanned domains into the trace store (0 = default 64, negative disables)")
	useDomLM := flag.Bool("domlm", false, "train the brand-language model over the brand universe and attach it to the matcher (generated-squat detection) and the classifier features")
	domlmThreshold := flag.Float64("domlm-threshold", 0, "brand-likeness score above which an unmatched domain is flagged as a generated squat (0 = default)")
	domlmSave := flag.String("domlm-save", "", "write the trained brand-language model (versioned binary, self-fingerprinting) to this file")
	domlmLoad := flag.String("domlm-load", "", "score a few sample domains with a saved model and exit (decode smoke check)")
	genSquats := flag.Int("gen-squats", 0, "plant this many machine-generated squats that defeat the five rule types (requires -domlm to detect them)")
	flag.Parse()

	if *domlmLoad != "" {
		if err := inspectModel(*domlmLoad); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := core.Config{
		World:            webworld.Config{SquattingDomains: *domains, NonSquattingPhish: *phish, GeneratedSquats: *genSquats, Seed: *seed},
		DNSNoiseRecords:  *noise,
		DomLM:            *useDomLM,
		DomLMThreshold:   *domlmThreshold,
		ForestTrees:      *trees,
		TraceSampleEvery: *traceSample,
		Seed:             *seed ^ 0x53517561, // decouple pipeline seed from world seed
	}
	if *eventsOut != "" {
		w := io.Writer(os.Stderr)
		if *eventsOut != "-" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		cfg.Events = slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	start := time.Now()
	p, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	// SIGINT/SIGTERM cancel the pipeline context and flush what exists:
	// the trace store and the crawler/prober stages all observe ctx, so
	// an interrupted run still leaves its provenance on disk instead of
	// dying with artifacts buffered in memory. The signal context is
	// never stopped: that would wake the watcher into os.Exit(1) after a
	// completed run.
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	flush := sync.OnceValue(func() error {
		if *traceOut == "" {
			return nil
		}
		if err := p.Prov.WriteStoreFile(*traceOut); err != nil {
			return err
		}
		sampled, hits := p.Prov.ScanStats()
		log.Printf("trace store written to %s (%d records, %d scans sampled, %d sampled hits)",
			*traceOut, len(p.Prov.Records()), sampled, hits)
		return nil
	})
	go func() {
		<-ctx.Done()
		log.Printf("signalled; flushing partial artifacts")
		if err := flush(); err != nil {
			log.Printf("flush: %v", err)
		}
		os.Exit(1)
	}()

	if *debugAddr != "" {
		dbg, err := obs.Serve(*debugAddr, p.Obs,
			obs.Route{Pattern: "/debug/verdict", Handler: trace.VerdictHandler(p.Lookup)})
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /debug/verdict, /debug/pprof)", dbg.Addr())
	}

	log.Printf("world: %d squatting domains, %d brands", len(p.World.SquattingDomains), len(p.World.Brands.Brands))
	if p.LM != nil {
		log.Printf("domlm: model %016x over %d brands (%d generated squats planted)",
			p.LM.Fingerprint(), len(p.World.Brands.Brands), len(p.World.GeneratedSquats))
		if *domlmSave != "" {
			if err := p.LM.WriteFile(*domlmSave); err != nil {
				log.Fatal(err)
			}
			log.Printf("domlm: model written to %s", *domlmSave)
		}
	}

	cands := p.ScanDNS()
	log.Printf("DNS scan: %d records -> %d squatting candidates (%.0f records/sec)",
		p.DNSSnapshot().Len(), len(cands), p.Obs.Gauge("core.scan_dns.records_per_sec").Value())
	counts := map[squat.Type]int{}
	for _, c := range cands {
		counts[c.Type]++
	}
	for _, t := range squat.MatchTypes {
		if t == squat.Generated && p.LM == nil {
			continue // type 6 only exists with the language model attached
		}
		log.Printf("  %-10s %6d", t, counts[t])
	}

	log.Printf("building ground truth from the feed (%d verified reports)...", len(p.Feed.Verified()))
	gt, err := p.BuildGroundTruth(ctx, 600)
	if err != nil {
		log.Fatal(err)
	}
	pos, neg := gt.Counts()
	log.Printf("ground truth: %d phishing, %d benign", pos, neg)

	log.Printf("training random forest (%d trees, OCR+lexical+form features)...", *trees)
	clf := p.TrainClassifier(gt, features.AllFeatures())
	log.Printf("10-fold CV: FP=%.3f FN=%.3f AUC=%.3f ACC=%.3f",
		clf.Eval.Confusion.FPR(), clf.Eval.Confusion.FNR(), clf.Eval.AUC, clf.Eval.Confusion.Accuracy())

	log.Printf("crawling %d candidates (web + mobile) and classifying...", len(cands))
	det, err := p.DetectInWild(ctx, clf, 0)
	if err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable("Squatting phishing in the wild",
		"Profile", "Flagged", "Confirmed", "Brands")
	summarise := func(name string, fs []core.Flagged) {
		confirmed, brands := 0, map[string]bool{}
		for _, f := range fs {
			if f.Confirmed {
				confirmed++
				brands[f.Brand] = true
			}
		}
		tb.AddRow(name, len(fs), confirmed, len(brands))
	}
	summarise("web", det.FlaggedWeb)
	summarise("mobile", det.FlaggedMobile)
	tb.Render(os.Stdout)

	fmt.Println("\nConfirmed squatting phishing domains:")
	shown := 0
	for _, f := range append(det.FlaggedWeb, det.FlaggedMobile...) {
		if !f.Confirmed || shown >= 25 {
			continue
		}
		profile := "web"
		if f.Mobile {
			profile = "mobile"
		}
		fmt.Printf("  %-40s %-10s %-12s score=%.2f [%s]\n", f.Domain, f.SquatType, f.Brand, f.Score, profile)
		shown++
	}
	union := det.ConfirmedUnion()
	fmt.Printf("\n%d confirmed squatting phishing domains (%.2f%% of %d squatting domains) in %s\n",
		len(union), float64(len(union))/float64(len(cands))*100, len(cands), time.Since(start).Round(time.Second))

	if *explain != "" {
		for _, d := range strings.Split(*explain, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				continue
			}
			rec := p.Explain(d, clf, det, 0)
			p.Prov.Put(rec)
			fmt.Println()
			fmt.Print(rec.Render())
		}
	}
	// The same flush as on a signal; whichever comes first writes the
	// store, once.
	if err := flush(); err != nil {
		log.Fatal(err)
	}

	timings := p.StageTimings()
	stages := make([]string, 0, len(timings))
	for name := range timings {
		stages = append(stages, name)
	}
	sort.Slice(stages, func(i, j int) bool { return timings[stages[i]] > timings[stages[j]] })
	log.Printf("stage timings (last run of each):")
	for _, name := range stages {
		log.Printf("  %-14s %s", name, timings[name].Round(time.Millisecond))
	}
}

// inspectModel decodes a saved brand-language model (verifying its
// embedded fingerprint) and scores a few probe labels, so a persisted
// model can be sanity-checked without running the pipeline.
func inspectModel(path string) error {
	m, err := domlm.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("model %016x (order %d)\n", m.Fingerprint(), m.Config().Order)
	for _, probe := range []string{"paypal.com", "paypa1-login.net", "secure-account.online", "qzxvwkjh.biz"} {
		fmt.Printf("  %-24s %.4f\n", probe, m.Score(probe))
	}
	return nil
}
