package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"squatphi/internal/core"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

var (
	envOnce sync.Once
	sharedE *Env
	envErr  error
)

// sharedEnv builds one small environment for all experiment tests: every
// driver shares the crawl and the trained classifier, like cmd/paperbench.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		sharedE, envErr = NewEnv(core.Config{
			World:           webworld.Config{SquattingDomains: 2000, NonSquattingPhish: 300, Seed: 2018},
			DNSNoiseRecords: 5000,
			ForestTrees:     15,
			CrawlWorkers:    16,
			Seed:            11,
		})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return sharedE
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	e := sharedEnv(t)
	ids := map[string]bool{}
	for _, d := range All() {
		d := d
		t.Run(strings.ReplaceAll(d.ID, " ", ""), func(t *testing.T) {
			if ids[d.ID] {
				t.Fatalf("duplicate experiment id %s", d.ID)
			}
			ids[d.ID] = true
			res, err := d.Run(e)
			if err != nil {
				t.Fatalf("%s: %v", d.ID, err)
			}
			if res.ID != d.ID {
				t.Errorf("result id %q != driver id %q", res.ID, d.ID)
			}
			if len(res.Tables)+len(res.Series) == 0 && len(res.Notes) == 0 {
				t.Errorf("%s produced no output", d.ID)
			}
			out := res.String()
			if !strings.Contains(out, d.ID) {
				t.Errorf("%s: rendering missing id header", d.ID)
			}
		})
	}
	if len(ids) != 30 {
		t.Errorf("ran %d experiments, want 30 (every paper table and figure, plus the Table 14 domlm extension)", len(ids))
	}
}

func TestShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	e := sharedEnv(t)

	// Invariant 1 (Fig. 2): combo is strictly the largest squatting type.
	cands := e.P.ScanDNS()
	counts := typeCounts(cands)
	for typ, c := range counts {
		if typ != squat.Combo && c >= counts[squat.Combo] {
			t.Errorf("Fig. 2: %s has %d candidates, combo %d; want combo strictly the largest", typ, c, counts[squat.Combo])
		}
	}

	// Invariant 3 (Table 7): RF >= KNN >= NB on AUC (allow small slack).
	evals, err := e.ModelEvals()
	if err != nil {
		t.Fatal(err)
	}
	rf, knn, nb := evals["RandomForest"], evals["KNN"], evals["NaiveBayes"]
	if rf.AUC < knn.AUC-0.05 {
		t.Errorf("RF AUC %.3f below KNN %.3f", rf.AUC, knn.AUC)
	}
	if rf.AUC < nb.AUC-0.05 {
		t.Errorf("RF AUC %.3f below NB %.3f", rf.AUC, nb.AUC)
	}
	if rf.AUC < 0.85 {
		t.Errorf("RF AUC %.3f, want >= 0.85 (paper 0.97)", rf.AUC)
	}

	// Invariant 4 (Table 8): small prevalence, majority confirmation.
	det, err := e.Detection()
	if err != nil {
		t.Fatal(err)
	}
	confirmed := det.ConfirmedUnion()
	if len(confirmed) == 0 {
		t.Fatal("no confirmed phishing")
	}
	prevalence := float64(len(confirmed)) / float64(len(cands))
	if prevalence > 0.05 {
		t.Errorf("phishing prevalence %.3f, want small", prevalence)
	}

	// Invariant 5 (Table 12): the majority evade all blacklists at day 30.
	// The exact 91.5% rate is asserted in internal/blacklist over a
	// 60k-domain world; this small world has only ~10 confirmed domains,
	// so the binomial variance is large — require majority evasion only.
	var domains []string
	for d := range confirmed {
		domains = append(domains, d)
	}
	sum := e.P.BlacklistSummary(domains, 30)
	if frac := float64(sum.Undetect) / float64(sum.Total); frac < 0.5 {
		t.Errorf("blacklist evasion %.2f, want majority (paper 0.915)", frac)
	}
}

// seriesTitles lists a result's series titles in print order.
func seriesTitles(r *Result) []string {
	var out []string
	for _, s := range r.Series {
		out = append(out, s.Title)
	}
	return out
}

// TestFigureSeriesOrder pins the print order of the per-profile series:
// web, then mobile, on every call. Ranging over a two-entry map printed
// mobile first in about one call of eight, so paperbench's output was not
// deterministic; 120 calls catch that with probability 1-(7/8)^120 > 1-2^-20.
func TestFigureSeriesOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	e := sharedEnv(t)
	want12 := []string{"Confirmed phishing by squatting type (web)", "Confirmed phishing by squatting type (mobile)"}
	for i := 0; i < 120; i++ {
		r, err := ExpFigure12(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := seriesTitles(r); !reflect.DeepEqual(got, want12) {
			t.Fatalf("Figure 12, call %d: series %q, want %q", i, got, want12)
		}
	}
	r, err := ExpFigure17(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seriesTitles(r), []string{"Live phishing pages (web)", "Live phishing pages (mobile)"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Figure 17: series %q, want %q", got, want)
	}
}
