// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver regenerates its artifact from the
// pipeline and returns it as formatted tables/series plus shape notes
// comparing against the paper's reported values (see EXPERIMENTS.md).
//
// Drivers share an Env whose expensive pipeline stages (DNS scan, crawl,
// ground truth, classifier, detection) are computed lazily and cached, so
// cmd/paperbench can run all experiments with a single world, crawl and
// training pass.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"squatphi/internal/core"
	"squatphi/internal/crawler"
	"squatphi/internal/features"
	"squatphi/internal/ml"
	"squatphi/internal/report"
	"squatphi/internal/webworld"
)

// Result is one regenerated experiment artifact.
type Result struct {
	// ID is the paper's artifact id, e.g. "Table 7" or "Figure 2".
	ID string
	// Name summarises what the artifact shows.
	Name   string
	Tables []*report.Table
	Series []*report.Series
	Notes  []string // paper-vs-measured shape observations
}

// Note appends a formatted shape note.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full artifact.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n", r.ID, r.Name)
	for _, t := range r.Tables {
		out += t.String()
	}
	for _, s := range r.Series {
		out += s.String()
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Env holds the lazily-computed pipeline stages shared by all drivers.
type Env struct {
	P   *core.Pipeline
	Ctx context.Context

	// ShotsDir, when non-empty, receives case-study screenshot PNGs
	// (Figure 14). Created on demand.
	ShotsDir string

	mu        sync.Mutex
	gt        *core.GroundTruth
	clf       *core.Classifier
	modelEval map[string]ml.Evaluation
	det       *core.Detection
}

// NewEnv builds a pipeline for the experiments.
func NewEnv(cfg core.Config) (*Env, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Env{P: p, Ctx: context.Background()}, nil
}

// Close releases the pipeline.
func (e *Env) Close() error { return e.P.Close() }

// GroundTruth lazily builds the training corpus.
func (e *Env) GroundTruth() (*core.GroundTruth, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gt == nil {
		gt, err := e.P.BuildGroundTruth(e.Ctx, 600)
		if err != nil {
			return nil, err
		}
		e.gt = gt
	}
	return e.gt, nil
}

// Classifier lazily trains the production random forest.
func (e *Env) Classifier() (*core.Classifier, error) {
	gt, err := e.GroundTruth()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.clf == nil {
		e.clf = e.P.TrainClassifier(gt, features.AllFeatures())
	}
	return e.clf, nil
}

// ModelEvals lazily cross-validates all three model families.
func (e *Env) ModelEvals() (map[string]ml.Evaluation, error) {
	gt, err := e.GroundTruth()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.modelEval == nil {
		e.modelEval = e.P.EvaluateModels(gt, features.AllFeatures())
	}
	return e.modelEval, nil
}

// Crawl0 returns the crawl of all candidates at the first snapshot. It is
// detection's crawl: detection scores each page as it is captured, while a
// crawl cached before it would be rendered a second time to be scored.
func (e *Env) Crawl0() ([]crawler.Result, error) {
	if _, err := e.Detection(); err != nil {
		return nil, err
	}
	return e.P.Crawl(e.Ctx, 0)
}

// Detection lazily runs the in-the-wild scan.
func (e *Env) Detection() (*core.Detection, error) {
	clf, err := e.Classifier()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.det == nil {
		det, err := e.P.DetectInWild(e.Ctx, clf, 0)
		if err != nil {
			return nil, err
		}
		e.det = det
	}
	return e.det, nil
}

// ConfirmedDomains returns the confirmed squatting phishing domains
// (union of profiles), sorted.
func (e *Env) ConfirmedDomains() ([]string, error) {
	det, err := e.Detection()
	if err != nil {
		return nil, err
	}
	set := det.ConfirmedUnion()
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}

// ConfirmedSites resolves the confirmed domains to their ground truth.
func (e *Env) ConfirmedSites() ([]*webworld.Site, error) {
	domains, err := e.ConfirmedDomains()
	if err != nil {
		return nil, err
	}
	var out []*webworld.Site
	for _, d := range domains {
		if s, ok := e.P.World.Site(d); ok {
			out = append(out, s)
		}
	}
	return out, nil
}
