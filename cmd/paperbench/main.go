// Command paperbench regenerates every table and figure of the paper's
// evaluation from a single shared pipeline run and prints the artifacts
// with paper-vs-measured shape notes (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	paperbench [-domains 8000] [-phish 600] [-seed 2018] [-only "Table 7"]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/experiments"
	"squatphi/internal/obs"
	"squatphi/internal/report"
	"squatphi/internal/webworld"
)

// metricsArtifact is the JSON line carrying the pipeline's observability
// snapshot: per-stage wall times plus every registry metric, so BENCH
// outputs record where the run spent its time.
type metricsArtifact struct {
	Kind           string             `json:"kind"`
	Title          string             `json:"title"`
	StageTimingsMS map[string]float64 `json:"stage_timings_ms"`
	// SLO is the latency-quantile rollup (p50/p95/p99/max per histogram),
	// the per-stage latency-objective view of the run.
	SLO     []obs.SLOEntry `json:"slo"`
	Metrics obs.Snapshot   `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	domains := flag.Int("domains", 8000, "approximate squatting-domain population")
	phish := flag.Int("phish", 600, "non-squatting phishing population")
	seed := flag.Uint64("seed", 2018, "world seed")
	noise := flag.Int("dnsnoise", 30000, "background DNS records")
	trees := flag.Int("trees", 40, "random forest size")
	only := flag.String("only", "", "run a single experiment by id (e.g. \"Table 7\")")
	shots := flag.String("shots", "", "write case-study screenshot PNGs (Figure 14) to this directory")
	jsonOut := flag.String("json", "", "additionally write artifacts as JSON lines to this file")
	flag.Parse()

	env, err := experiments.NewEnv(core.Config{
		World:           webworld.Config{SquattingDomains: *domains, NonSquattingPhish: *phish, Seed: *seed},
		DNSNoiseRecords: *noise,
		ForestTrees:     *trees,
		Seed:            *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	env.ShotsDir = *shots

	var jsonFile *os.File
	if *jsonOut != "" {
		jsonFile, err = os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		defer jsonFile.Close()
	}

	failures := 0
	for _, d := range experiments.All() {
		if *only != "" && d.ID != *only {
			continue
		}
		start := time.Now()
		res, err := d.Run(env)
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s (%s): %v\n", d.ID, d.Name, err)
			continue
		}
		fmt.Println(res.String())
		if jsonFile != nil {
			for _, tb := range res.Tables {
				if err := report.WriteJSON(jsonFile, tb); err != nil {
					log.Fatal(err)
				}
			}
			for _, sr := range res.Series {
				if err := report.WriteJSON(jsonFile, sr); err != nil {
					log.Fatal(err)
				}
			}
		}
		log.Printf("%s done in %s", d.ID, time.Since(start).Round(time.Millisecond))
	}
	snap := env.P.Obs.Snapshot()
	slo := snap.SLORollup("")
	if len(slo) > 0 {
		log.Printf("SLO rollup (histogram latency quantiles):")
		for _, e := range slo {
			log.Printf("  %-28s n=%-7d p50=%-10.3g p95=%-10.3g p99=%-10.3g max=%.3g",
				e.Name, e.Count, e.P50, e.P95, e.P99, e.Max)
		}
	}
	if jsonFile != nil {
		art := metricsArtifact{
			Kind:           "metrics",
			Title:          "pipeline observability snapshot",
			StageTimingsMS: map[string]float64{},
			SLO:            slo,
			Metrics:        snap,
		}
		for name, d := range env.P.StageTimings() {
			art.StageTimingsMS[name] = float64(d) / float64(time.Millisecond)
		}
		if err := report.WriteJSON(jsonFile, art); err != nil {
			log.Fatal(err)
		}
	}
	if failures > 0 {
		log.Fatalf("%d experiments failed", failures)
	}
}
