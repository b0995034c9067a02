// Command squatmond runs SquatPhi as a continuous monitor, the deployment
// mode of paper §7: it watches the DNS for newly registered domains, flags
// the squatting ones, crawls and classifies them, and appends alerts to a
// JSONL report. Against the synthetic world, "new registrations" arrive by
// landing in an authoritative zone each round; the monitor confirms them by
// active probing (the ActiveDNS methodology) before matching.
//
// Every stage reports to the shared metrics registry, each round is a
// runtime/trace task with regions inside it (probe, match, crawler.crawl,
// classify), and -debug-addr serves /metrics and pprof live; capture the
// rounds' timeline from /debug/pprof/trace.
//
// Usage:
//
//	squatmond [-rounds 3] [-interval 0s] [-new 400] [-report alerts.jsonl] [-debug-addr :6060]
//
// Each round matches only that round's probe-confirmed registrations, so
// the round cost tracks the churn rather than the zone size.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime/trace"
	"syscall"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/crawler"
	"squatphi/internal/dnsx"
	"squatphi/internal/features"
	"squatphi/internal/fsx"
	"squatphi/internal/obs"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

// Alert is one monitor finding.
type Alert struct {
	Round     int     `json:"round"`
	Domain    string  `json:"domain"`
	Brand     string  `json:"brand"`
	SquatType string  `json:"squat_type"`
	Score     float64 `json:"score"`
	Profile   string  `json:"profile"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("squatmond: ")
	rounds := flag.Int("rounds", 3, "monitoring rounds to run")
	interval := flag.Duration("interval", 0, "pause between rounds")
	reportPath := flag.String("report", "", "append alerts as JSONL to this file (default stdout)")
	newPerRound := flag.Int("new", 400, "world registrations arriving per round (plus 50% random-noise names)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and pprof (/debug/pprof/trace for the round timeline) on this address (e.g. :6060)")
	metricsPath := flag.String("metrics", "", "write the final metrics snapshot to this file (default <report>.metrics.json when -report is set)")
	flag.Parse()

	reg := obs.NewRegistry()
	p, err := core.New(core.Config{
		World:           webworld.Config{SquattingDomains: 3000, NonSquattingPhish: 300, Seed: 7},
		DNSNoiseRecords: 8000,
		ForestTrees:     25,
		Seed:            99,
		Metrics:         reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	// SIGINT/SIGTERM cancel the monitor context; the round loop exits at
	// the next stage boundary and the normal flush path (metrics
	// snapshot) still runs — a monitor killed from the terminal leaves the
	// same artifacts as one that ran to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbg, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /debug/pprof)", dbg.Addr())
	}

	out := os.Stdout
	if *reportPath != "" {
		f, err := os.OpenFile(*reportPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)

	log.Printf("bootstrapping: training the classifier on the feed ground truth...")
	gt, err := p.BuildGroundTruth(ctx, 400)
	if err != nil {
		log.Fatal(err)
	}
	clf := p.TrainClassifier(gt, features.AllFeatures())
	log.Printf("classifier ready: CV AUC=%.3f FP=%.3f FN=%.3f",
		clf.Eval.AUC, clf.Eval.Confusion.FPR(), clf.Eval.Confusion.FNR())

	// The monitor watches an authoritative zone; each round a batch of
	// "new registrations" (a shard of world domains it has not seen yet
	// plus fresh noise) lands there, and the monitor confirms them by
	// active probing against the zone's DNS server before matching.
	zone := dnsx.NewStore()
	srv, err := dnsx.NewServerObs(zone, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	prober := &dnsx.Prober{Addr: srv.Addr(), Metrics: reg}

	worldDomains := p.World.DNSDomains()
	rng := simrand.New(1)
	cursor := 0
	c := &crawler.Crawler{Client: p.Server.Client(), Workers: 16, Metrics: reg}

	mRounds := reg.Counter("squatmond.rounds")
	mNew := reg.Counter("squatmond.new_registrations")
	mCandidates := reg.Counter("squatmond.candidates")
	mAlerts := reg.Counter("squatmond.alerts")
	hRound := reg.Histogram("squatmond.round_ms", obs.MillisBuckets)

monitor:
	for round := 1; round <= *rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		roundCtx, task := trace.NewTask(ctx, "round")
		trace.Logf(roundCtx, "round", "%d", round)
		start := time.Now()

		var batch []string
		for i := 0; i < *newPerRound && cursor < len(worldDomains); i++ {
			d := worldDomains[cursor]
			cursor++
			if _, exists := zone.Lookup(d); exists {
				continue
			}
			zone.Add(d, dnsx.RandomIP(rng))
			batch = append(batch, d)
		}
		for i := 0; i < *newPerRound/2; i++ {
			d := rng.Letters(10) + ".com"
			if _, exists := zone.Lookup(d); exists {
				continue
			}
			zone.Add(d, dnsx.RandomIP(rng))
			batch = append(batch, d)
		}
		mNew.Add(int64(len(batch)))

		region := trace.StartRegion(roundCtx, "probe")
		records, err := prober.Probe(roundCtx, batch)
		trace.Logf(roundCtx, "resolved", "%d", len(records))
		region.End()
		if err != nil {
			trace.Log(roundCtx, "error", err.Error())
			if ctx.Err() != nil { // interrupted mid-probe: flush, don't fatal
				task.End()
				break monitor
			}
			log.Fatal(err)
		}

		region = trace.StartRegion(roundCtx, "match")
		var domains []string
		byDomain := map[string]squat.Candidate{}
		for _, rec := range records {
			if cand, ok := p.Matcher.Match(rec.Domain); ok {
				domains = append(domains, cand.Domain)
				byDomain[cand.Domain] = cand
			}
		}
		trace.Logf(roundCtx, "candidates", "%d", len(domains))
		region.End()
		mCandidates.Add(int64(len(domains)))

		// The crawler opens its own region in the round's task. Each
		// domain's pages are classified on its crawl worker into
		// per-index slots (-1: not scored) and their pixels dropped there;
		// the alerts are then encoded serially in crawl order.
		scores := make([][2]float64, len(domains))
		results, err := c.Crawl(roundCtx, domains, func(i int, r *crawler.Result) {
			for pi, cap := range [2]*crawler.Capture{&r.Web, &r.Mobile} {
				scores[i][pi] = -1
				if cap.Live && !cap.Redirected() {
					scores[i][pi] = core.ClassifyCapture(clf, *cap)
				}
				cap.Shot = nil
			}
		})
		if err != nil {
			if ctx.Err() != nil { // interrupted mid-crawl: flush, don't fatal
				task.End()
				break monitor
			}
			log.Fatal(err)
		}

		region = trace.StartRegion(roundCtx, "classify")
		roundAlerts := 0
		for i, res := range results {
			for pi, profile := range []string{"web", "mobile"} {
				score := scores[i][pi]
				if score < 0.5 {
					continue
				}
				cand := byDomain[res.Domain]
				if err := enc.Encode(Alert{
					Round: round, Domain: res.Domain, Brand: cand.Brand.Name,
					SquatType: cand.Type.String(), Score: score, Profile: profile,
				}); err != nil {
					log.Fatal(err)
				}
				roundAlerts++
			}
		}
		trace.Logf(roundCtx, "alerts", "%d", roundAlerts)
		region.End()
		mAlerts.Add(int64(roundAlerts))
		mRounds.Inc()
		hRound.ObserveSince(start)
		task.End()

		rtt := reg.Histogram("dnsx.probe.rtt_ms", nil).Snapshot()
		log.Printf("round %d: %d new registrations, %d candidates, %d alerts (wall %s, probe RTT p50 %.2fms, alerts total %d)",
			round, len(batch), len(domains), roundAlerts,
			time.Since(start).Round(time.Millisecond), rtt.Quantile(0.5), mAlerts.Value())

		if *interval > 0 && round < *rounds {
			select {
			case <-time.After(*interval):
			case <-ctx.Done():
			}
		}
	}
	if ctx.Err() != nil {
		log.Printf("signalled; flushing artifacts before exit")
	}

	snap := reg.Snapshot()
	fmt.Fprintf(os.Stderr, "squatmond: %d alerts over %d rounds (%d DNS queries served, %d candidates, %d pages fetched, %d fetch failures)\n",
		snap.Counters["squatmond.alerts"], *rounds,
		snap.Counters["dnsx.server.queries"], snap.Counters["squatmond.candidates"],
		snap.Counters["crawler.pages"], snap.Counters["crawler.fetch.failures"])

	// Flush the final snapshot next to the JSONL report.
	flushPath := *metricsPath
	if flushPath == "" && *reportPath != "" {
		flushPath = *reportPath + ".metrics.json"
	}
	if flushPath != "" {
		if err := fsx.WriteFile(flushPath, func(w io.Writer) error {
			me := json.NewEncoder(w)
			me.SetIndent("", "  ")
			return me.Encode(snap)
		}); err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics snapshot written to %s", flushPath)
	}
}
