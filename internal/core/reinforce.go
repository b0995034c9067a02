package core

import (
	"context"
	"fmt"

	"squatphi/internal/features"
)

// Reinforce implements the improvement the paper proposes in §6.1: feed
// the newly confirmed phishing pages (and the flagged-but-rejected false
// positives) back into the training data and retrain the classifier.
// It returns the enlarged ground truth and the retrained classifier.
func (p *Pipeline) Reinforce(ctx context.Context, gt *GroundTruth, det *Detection, snapshot int, opts features.Options) (*GroundTruth, *Classifier, error) {
	results, err := p.Crawl(ctx, snapshot)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reinforce crawl: %w", err)
	}
	byDomain := map[string]int{}
	for i, r := range results {
		byDomain[r.Domain] = i
	}
	already := map[string]bool{}
	for _, s := range gt.Samples {
		already[s.Domain] = true
	}

	enlarged := &GroundTruth{Samples: append([]LabeledSample(nil), gt.Samples...)}
	add := func(f Flagged) {
		if already[f.Domain] {
			return
		}
		i, ok := byDomain[f.Domain]
		if !ok {
			return
		}
		cap := results[i].Web
		if f.Mobile {
			cap = results[i].Mobile
		}
		if !cap.Live {
			return
		}
		already[f.Domain] = true
		enlarged.Samples = append(enlarged.Samples, LabeledSample{
			Domain:   f.Domain,
			Sample:   p.sampleFor(f.Domain, &cap),
			Phishing: f.Confirmed,
		})
	}
	for _, f := range det.FlaggedWeb {
		add(f)
	}
	for _, f := range det.FlaggedMobile {
		add(f)
	}
	clf := p.TrainClassifier(enlarged, opts)
	return enlarged, clf, nil
}

// ReportConfirmed submits the confirmed phishing domains to the blacklist
// ecosystem (paper §7: the authors manually reported the 1,015 undetected
// URLs). Returns how many were newly reported (not already listed).
func (p *Pipeline) ReportConfirmed(det *Detection, day int) int {
	reported := 0
	for domain := range det.ConfirmedUnion() {
		site, ok := p.World.Site(domain)
		if !ok {
			continue
		}
		if p.Blacklists.Detected(site, day) {
			continue // already on a list
		}
		p.Blacklists.Report(domain, day)
		reported++
	}
	return reported
}
