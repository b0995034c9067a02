package core

import (
	"context"
	"fmt"

	"squatphi/internal/features"
	"squatphi/internal/ml"
	"squatphi/internal/simrand"
	"squatphi/internal/webworld"
)

// LabeledSample is one ground-truth page for classifier training.
type LabeledSample struct {
	Domain string
	Sample features.Sample
	// Phishing is the manual-verification label (the world's ground truth
	// stands in for the paper's human annotators).
	Phishing bool
}

// GroundTruth is the training corpus (paper §4.1/§5.3): verified feed
// pages that still serve phishing (positives), feed pages already taken
// down or replaced (hard negatives), and a sample of benign pages under
// squatting domains (the "easy-to-confuse" negatives).
type GroundTruth struct {
	Samples []LabeledSample
}

// Counts returns the number of positive and negative samples.
func (g *GroundTruth) Counts() (pos, neg int) {
	for _, s := range g.Samples {
		if s.Phishing {
			pos++
		} else {
			neg++
		}
	}
	return
}

// BuildGroundTruth crawls the feed's reported domains plus a benign sample
// of squatting domains and labels them with the verification oracle.
// maxBenignSquat bounds the extra negatives (paper: 1,565).
func (p *Pipeline) BuildGroundTruth(ctx context.Context, maxBenignSquat int) (*GroundTruth, error) {
	ctx, done := p.stageTask(ctx, "ground_truth")
	gt, err := p.buildGroundTruth(ctx, maxBenignSquat)
	if gt != nil {
		pos, neg := gt.Counts()
		p.Obs.Gauge("core.ground_truth.positives").Set(float64(pos))
		p.Obs.Gauge("core.ground_truth.negatives").Set(float64(neg))
	}
	done(err)
	return gt, err
}

func (p *Pipeline) buildGroundTruth(ctx context.Context, maxBenignSquat int) (*GroundTruth, error) {
	gt := &GroundTruth{}

	// 1) Feed-reported domains, crawled immediately (snapshot 0).
	var feedDomains []string
	seen := map[string]bool{}
	for _, rep := range p.Feed.Verified() {
		if !seen[rep.Domain] {
			seen[rep.Domain] = true
			feedDomains = append(feedDomains, rep.Domain)
		}
	}
	results, err := p.CrawlDomains(ctx, 0, feedDomains)
	if err != nil {
		return nil, fmt.Errorf("core: crawl feed domains: %w", err)
	}
	sampled := map[string]bool{}
	for _, r := range results {
		cap := r.Web
		if !cap.Live {
			if !r.Mobile.Live {
				continue // page gone entirely: nothing to train on
			}
			cap = r.Mobile
		}
		site, ok := p.World.Site(r.Domain)
		label := ok && site.IsPhishingAt(0)
		sampled[r.Domain] = true
		gt.Samples = append(gt.Samples, LabeledSample{
			Domain:   r.Domain,
			Sample:   features.Sample{HTML: cap.HTML, Shot: cap.Shot, LMScore: p.LMScore(r.Domain)},
			Phishing: label,
		})
	}

	// 2) Benign pages under squatting domains: the hard negatives that
	// teach the classifier the difference between "suspicious domain" and
	// "phishing page".
	if maxBenignSquat > 0 {
		r := simrand.New(p.Cfg.Seed).Split("benign-sample")
		var pool []string
		for _, d := range p.World.SquattingDomains {
			if sampled[d] {
				continue // already labelled via the feed
			}
			if s := p.World.Sites[d]; s.Kind == webworld.Benign || s.Kind == webworld.Parked {
				pool = append(pool, d)
			}
		}
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		if len(pool) > maxBenignSquat {
			pool = pool[:maxBenignSquat]
		}
		benignResults, err := p.CrawlDomains(ctx, 0, pool)
		if err != nil {
			return nil, fmt.Errorf("core: crawl benign sample: %w", err)
		}
		for _, res := range benignResults {
			if !res.Web.Live {
				continue
			}
			gt.Samples = append(gt.Samples, LabeledSample{
				Domain:   res.Domain,
				Sample:   features.Sample{HTML: res.Web.HTML, Shot: res.Web.Shot, LMScore: p.LMScore(res.Domain)},
				Phishing: false,
			})
		}
	}
	return gt, nil
}

// Classifier is the trained detection model plus its evaluation.
type Classifier struct {
	Extractor *features.Extractor
	Model     ml.Classifier
	// Eval holds the cross-validated metrics of the chosen model family
	// on the ground truth (the Table 7 Random Forest row).
	Eval ml.Evaluation
}

// fitExtractor builds the feature extractor on the ground-truth corpus and
// returns it with the corpus's design matrix and label vector. Each sample
// is read once, on the scoring pool (OCR over every screenshot is the
// training-side compute bottleneck): the same token lists build the
// vocabulary and are embedded. Per-index slots keep the output identical
// to a serial extraction.
func (p *Pipeline) fitExtractor(gt *GroundTruth, opts features.Options) (ex *features.Extractor, X [][]float64, y []int) {
	if p.LM != nil {
		opts.UseDomLM = true
	}
	corpus := make([]features.Sample, len(gt.Samples))
	y = make([]int, len(gt.Samples))
	for i, s := range gt.Samples {
		corpus[i] = s.Sample
		if s.Phishing {
			y[i] = 1
		}
	}
	ex, X = features.Fit(opts, corpus, p.World.Brands.Names(), 3, p.scoreParallel)
	return ex, X, y
}

// forestFactory builds the production random forest, trained across the
// scoring pool's worker budget (tree training is deterministic for a fixed
// seed at any parallelism).
func (p *Pipeline) forestFactory() func() ml.Classifier {
	return func() ml.Classifier {
		return &ml.RandomForest{NTrees: p.Cfg.ForestTrees, Seed: p.Cfg.Seed, Workers: p.scoreWorkers()}
	}
}

// TrainClassifier builds the feature extractor on the ground-truth corpus,
// cross-validates, and fits the final random forest on all samples
// (paper §5.2/§5.3).
func (p *Pipeline) TrainClassifier(gt *GroundTruth, opts features.Options) *Classifier {
	_, done := p.stageTask(context.Background(), "train")
	defer done(nil)
	ex, X, y := p.fitExtractor(gt, opts)
	factory := p.forestFactory()
	eval := ml.CrossValidate(factory, X, y, 10, p.Cfg.Seed)
	final := factory()
	final.Fit(X, y)
	return &Classifier{Extractor: ex, Model: final, Eval: eval}
}

// EvaluateModels cross-validates all three model families on the ground
// truth (the full Table 7 / Figure 10).
func (p *Pipeline) EvaluateModels(gt *GroundTruth, opts features.Options) map[string]ml.Evaluation {
	_, X, y := p.fitExtractor(gt, opts)
	out := map[string]ml.Evaluation{}
	out["NaiveBayes"] = ml.CrossValidate(func() ml.Classifier { return &ml.NaiveBayes{} }, X, y, 10, p.Cfg.Seed)
	out["KNN"] = ml.CrossValidate(func() ml.Classifier { return &ml.KNN{K: 5} }, X, y, 10, p.Cfg.Seed)
	out["RandomForest"] = ml.CrossValidate(p.forestFactory(), X, y, 10, p.Cfg.Seed)
	return out
}
