package squatphi

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"squatphi/internal/core"
	"squatphi/internal/dnsx"
	"squatphi/internal/features"
	"squatphi/internal/obs/trace"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_pipeline.json from the current pipeline output")

const (
	goldenPath     = "testdata/golden_pipeline.json"
	goldenProvPath = "testdata/golden_provenance.json"
)

// goldenReport is the stable projection of one full pipeline run that the
// golden file pins: the scanned candidates, the ground-truth split, the CV
// evaluation, and every flagged domain with its score and verdict.
type goldenReport struct {
	Candidates    []goldenCandidate `json:"candidates"`
	GroundTruth   goldenCounts      `json:"ground_truth"`
	AUC           float64           `json:"auc"`
	FPR           float64           `json:"fpr"`
	FNR           float64           `json:"fnr"`
	FlaggedWeb    []goldenFlag      `json:"flagged_web"`
	FlaggedMobile []goldenFlag      `json:"flagged_mobile"`
}

type goldenCounts struct {
	Phishing int `json:"phishing"`
	Benign   int `json:"benign"`
}

type goldenCandidate struct {
	Domain string `json:"domain"`
	Type   string `json:"type"`
	Brand  string `json:"brand"`
}

type goldenFlag struct {
	Domain    string  `json:"domain"`
	SquatType string  `json:"squat_type"`
	Brand     string  `json:"brand"`
	Score     float64 `json:"score"`
	Confirmed bool    `json:"confirmed"`
}

// goldenProvenance pins one flagged domain's verdict-provenance record:
// the structured evidence plus its human-readable rendering, which must be
// byte-identical at every scan worker count.
type goldenProvenance struct {
	Domain   string        `json:"domain"`
	Record   *trace.Record `json:"record"`
	Rendered string        `json:"rendered"`
}

// goldenConfig is the tiny fixed world every variant runs against. Its
// crawl sees no transport error, so no retry backoff or timeout can reach
// the captures (runGoldenPipeline asserts it). DomLM is on,
// with generated squats planted and brand-noise hard negatives in the
// snapshot, so every variant proves the language-model score path is
// byte-identical at every scan worker count too.
func goldenConfig(scanWorkers int) core.Config {
	return core.Config{
		World:           webworld.Config{SquattingDomains: 400, NonSquattingPhish: 100, GeneratedSquats: 80, Seed: 11},
		DNSNoiseRecords: 1200,
		DomLM:           true,
		DNSBrandNoise:   200,
		ForestTrees:     10,
		ScanWorkers:     scanWorkers,
		ScoreWorkers:    1,
		Seed:            12,
	}
}

// runGoldenPipeline executes generate -> scan -> crawl -> features ->
// classify -> detect and projects the outcome, plus the provenance
// record of one flagged domain. With delta the projected candidate list is
// the pipeline's own delta-engine scan; without it, the slow serial
// reference over the same snapshot (serialScan), so the golden pins the
// engine against a scan that shares none of its code.
func runGoldenPipeline(t *testing.T, cfg core.Config, delta bool) (goldenReport, goldenProvenance) {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	cands := p.ScanDNS()
	gt, err := p.BuildGroundTruth(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	clf := p.TrainClassifier(gt, features.AllFeatures())
	det, err := p.DetectInWild(ctx, clf, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Provenance golden: the first confirmed (fallback: first) flagged web
	// domain's evidence record, read back from the always-on store that
	// DetectInWild fills.
	var prov goldenProvenance
	if len(det.FlaggedWeb) > 0 {
		f := det.FlaggedWeb[0]
		for _, c := range det.FlaggedWeb {
			if c.Confirmed {
				f = c
				break
			}
		}
		rec, ok := p.Prov.Get(f.Domain)
		if !ok {
			t.Fatalf("flagged domain %s has no record in the provenance store", f.Domain)
		}
		prov = goldenProvenance{Domain: f.Domain, Record: rec, Rendered: rec.Render()}
	}

	// The crawl must not have retried or timed out anywhere: a retry's
	// wall-clock backoff or a timeout would make the captures depend on
	// the machine.
	counters := p.Obs.Snapshot().Counters
	for _, name := range []string{"crawler.fetch.retries", "crawler.fetch.timeouts"} {
		if n := counters[name]; n != 0 {
			t.Fatalf("%s = %d, want 0", name, n)
		}
	}

	if !delta {
		cands = serialScan(p.DNSSnapshot(), p.Matcher)
	}
	var rep goldenReport
	for _, c := range cands {
		rep.Candidates = append(rep.Candidates, goldenCandidate{
			Domain: c.Domain, Type: c.Type.String(), Brand: c.Brand.Domain(),
		})
	}
	rep.GroundTruth.Phishing, rep.GroundTruth.Benign = gt.Counts()
	rep.AUC = clf.Eval.AUC
	rep.FPR = clf.Eval.Confusion.FPR()
	rep.FNR = clf.Eval.Confusion.FNR()
	rep.FlaggedWeb = goldenFlags(det.FlaggedWeb)
	rep.FlaggedMobile = goldenFlags(det.FlaggedMobile)
	return rep, prov
}

// serialScan matches every record of store in insertion order and sorts
// the candidates by domain: the reference every scan path must equal.
func serialScan(store *dnsx.Store, m *squat.Matcher) []squat.Candidate {
	var out []squat.Candidate
	store.Range(func(r dnsx.Record) bool {
		if c, ok := m.Match(r.Domain); ok {
			out = append(out, c)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

func goldenFlags(fs []core.Flagged) []goldenFlag {
	var out []goldenFlag
	for _, f := range fs {
		out = append(out, goldenFlag{
			Domain: f.Domain, SquatType: f.SquatType.String(),
			Brand: f.Brand, Score: f.Score, Confirmed: f.Confirmed,
		})
	}
	return out
}

func marshalGolden(t *testing.T, rep goldenReport) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

func marshalProvenance(t *testing.T, prov goldenProvenance) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(prov, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestGoldenPipeline pins the end-to-end pipeline output against
// testdata/golden_pipeline.json and testdata/golden_provenance.json at
// scan worker counts 1, 4 and 32, pinning the candidate list of both the
// delta engine (delta=true) and the serial reference (delta=false): every
// variant must reproduce both files byte for byte. Regenerate (from the
// one-worker engine run) with: go test -run TestGoldenPipeline -update .
func TestGoldenPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	if *updateGolden {
		rep, prov := runGoldenPipeline(t, goldenConfig(1), true)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, marshalGolden(t, rep), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenProvPath, marshalProvenance(t, prov), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d candidates, %d web + %d mobile flags) and %s (%s)",
			goldenPath, len(rep.Candidates), len(rep.FlaggedWeb), len(rep.FlaggedMobile),
			goldenProvPath, prov.Domain)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	wantProv, err := os.ReadFile(goldenProvPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	for _, workers := range []int{1, 4, 32} {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d,delta=%v", workers, delta), func(t *testing.T) {
				rep, prov := runGoldenPipeline(t, goldenConfig(workers), delta)
				if out := marshalGolden(t, rep); !bytes.Equal(out, want) {
					t.Fatalf("pipeline output diverged from %s:\n%s\n(run with -update to regenerate)",
						goldenPath, firstDiff(want, out))
				}
				if out := marshalProvenance(t, prov); !bytes.Equal(out, wantProv) {
					t.Fatalf("provenance diverged from %s:\n%s\n(run with -update to regenerate)",
						goldenProvPath, firstDiff(wantProv, out))
				}
			})
		}
	}
}

// TestGoldenProvenance is the focused provenance-golden check (`make
// provenance-check`): one serial run must reproduce
// testdata/golden_provenance.json byte for byte.
func TestGoldenProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	_, prov := runGoldenPipeline(t, goldenConfig(1), true)
	got := marshalProvenance(t, prov)
	if *updateGolden {
		if err := os.WriteFile(goldenProvPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%s)", goldenProvPath, prov.Domain)
		return
	}
	want, err := os.ReadFile(goldenProvPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("provenance diverged from %s:\n%s\n(run with -update to regenerate)",
			goldenProvPath, firstDiff(want, got))
	}
}

// firstDiff renders the first differing line between two JSON blobs.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}
