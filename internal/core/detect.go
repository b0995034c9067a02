package core

import (
	"context"
	"fmt"

	"squatphi/internal/crawler"
	"squatphi/internal/features"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
)

// Flagged is one page the classifier marked as phishing.
type Flagged struct {
	Domain    string
	Mobile    bool
	Score     float64
	SquatType squat.Type
	Brand     string
	// Confirmed is the manual-verification verdict (ground-truth oracle).
	Confirmed bool
}

// Detection is the outcome of scanning the wild (Table 8).
type Detection struct {
	// FlaggedWeb and FlaggedMobile are the classifier hits per profile.
	FlaggedWeb, FlaggedMobile []Flagged
}

// confirmedSet collects confirmed domains of one profile list.
func confirmedSet(fs []Flagged) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		if f.Confirmed {
			out[f.Domain] = true
		}
	}
	return out
}

// ConfirmedWeb returns the confirmed web phishing domains.
func (d *Detection) ConfirmedWeb() map[string]bool { return confirmedSet(d.FlaggedWeb) }

// ConfirmedMobile returns the confirmed mobile phishing domains.
func (d *Detection) ConfirmedMobile() map[string]bool { return confirmedSet(d.FlaggedMobile) }

// ConfirmedUnion returns all confirmed squatting phishing domains.
func (d *Detection) ConfirmedUnion() map[string]bool {
	out := d.ConfirmedWeb()
	for dom := range d.ConfirmedMobile() {
		out[dom] = true
	}
	return out
}

// DetectInWild applies the trained classifier to every live crawled page
// of both profiles and verifies the flagged ones against the oracle
// (paper §6.1: classify, then manually confirm).
func (p *Pipeline) DetectInWild(ctx context.Context, clf *Classifier, snapshot int) (*Detection, error) {
	ctx, done := p.stageTask(ctx, "detect")
	det, err := p.detectInWild(ctx, clf, snapshot)
	if det != nil {
		p.Obs.Counter("core.detect.flagged").Add(int64(len(det.FlaggedWeb) + len(det.FlaggedMobile)))
		p.Obs.Counter("core.detect.confirmed").Add(int64(len(det.ConfirmedUnion())))
		// Always-on provenance: every flagged verdict gets a full evidence
		// record, independent of head sampling.
		p.recordFlagged(clf, det, snapshot)
	}
	done(err)
	return det, err
}

func (p *Pipeline) detectInWild(ctx context.Context, clf *Classifier, snapshot int) (*Detection, error) {
	// Score every live page, then assemble the flag lists serially in
	// crawl order so the output is identical at any worker count.
	results, scores, err := p.crawl(ctx, snapshot, clf)
	if err != nil {
		return nil, fmt.Errorf("core: crawl for detection: %w", err)
	}
	det := &Detection{}
	for i, r := range results {
		for pi, mobile := range []bool{false, true} {
			score := scores[i][pi]
			if score < 0 {
				continue // dead or redirected: someone else's content
			}
			if score < 0.5 {
				continue
			}
			site, _ := p.World.Site(r.Domain)
			f := Flagged{Domain: r.Domain, Mobile: mobile, Score: score}
			if site != nil {
				f.SquatType = site.SquatType
				f.Brand = site.Brand.Name
				// Manual verification: does the page truly impersonate the
				// brand with a credential form right now?
				f.Confirmed = site.IsPhishingAt(snapshot) &&
					(site.Cloak == webworld.CloakNone ||
						mobile && site.Cloak == webworld.CloakMobileOnly ||
						!mobile && site.Cloak == webworld.CloakWebOnly)
			}
			if mobile {
				det.FlaggedMobile = append(det.FlaggedMobile, f)
			} else {
				det.FlaggedWeb = append(det.FlaggedWeb, f)
			}
		}
	}
	return det, nil
}

// ClassifySample scores one feature sample with a trained classifier.
func ClassifySample(clf *Classifier, s features.Sample) float64 {
	return clf.Model.PredictProba(clf.Extractor.Vector(s))
}

// ClassifyCapture scores one capture with a trained classifier. It carries
// no domain-model score; pipeline scan paths use sampleFor so the LMScore
// feature is populated when Config.DomLM is on. A capture of a cached
// crawl is rendered again (Capture.Screenshot).
func ClassifyCapture(clf *Classifier, cap crawler.Capture) float64 {
	return ClassifySample(clf, features.Sample{HTML: cap.HTML, Shot: cap.Screenshot()})
}

// sampleFor builds the feature sample of one capture, including the
// brand-language-model score of its domain when the model is attached.
func (p *Pipeline) sampleFor(domain string, cap *crawler.Capture) features.Sample {
	return features.Sample{HTML: cap.HTML, Shot: cap.Screenshot(), LMScore: p.LMScore(domain)}
}

// pageScores scores the web and mobile pages of one crawled domain. A page
// detection skips, dead or redirected to someone else's content, scores -1.
func (p *Pipeline) pageScores(clf *Classifier, r *crawler.Result) [2]float64 {
	scores := [2]float64{-1, -1}
	for pi, cap := range [2]*crawler.Capture{&r.Web, &r.Mobile} {
		if cap.Live && !cap.Redirected() {
			scores[pi] = ClassifySample(clf, p.sampleFor(r.Domain, cap))
		}
	}
	return scores
}

// MonitorLiveness re-crawls the confirmed phishing domains at each
// snapshot and re-classifies them, returning per-snapshot live-phishing
// counts per profile (Figure 17).
func (p *Pipeline) MonitorLiveness(ctx context.Context, clf *Classifier, confirmed []string) (web, mobile []int, err error) {
	ctx, done := p.stageTask(ctx, "liveness")
	defer func() { done(err) }()
	web = make([]int, webworld.Snapshots)
	mobile = make([]int, webworld.Snapshots)
	for snap := 0; snap < webworld.Snapshots; snap++ {
		// Each re-crawled page is classified on its crawl worker.
		visit, scores := p.scoreHook(clf, len(confirmed))
		if _, err := p.crawlStage(ctx, "crawl_domains", snap, confirmed, visit); err != nil {
			return nil, nil, err
		}
		for _, s := range scores {
			if s[0] >= 0.5 {
				web[snap]++
			}
			if s[1] >= 0.5 {
				mobile[snap]++
			}
		}
	}
	return web, mobile, nil
}
