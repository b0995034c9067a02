package core

import (
	"fmt"
	"sort"

	"squatphi/internal/crawler"
	"squatphi/internal/features"
	"squatphi/internal/ml"
	"squatphi/internal/obs/trace"
)

// This file assembles verdict-provenance records (internal/obs/trace)
// from the pipeline's own state: matcher evidence is recomputed on
// demand via squat.Matcher.Explain (deterministic, so nothing needs to
// be captured on the scan hot path), cache provenance comes from the
// delta engine's epoch stamps, and crawl/ML evidence is reconstructed from
// the cached crawl results and the trained classifier. Everything here is
// observational: no verdict, ordering, or cache decision reads any of
// it, and a record's bytes are identical at every scan worker count.

// explainCtx carries the detection-run state one record assembly needs.
type explainCtx struct {
	clf      *Classifier
	results  map[string]*crawler.Result
	flagged  map[string][2]*Flagged // per domain: [web, mobile]
	retries  map[string]int64
	failures map[string]int64
}

// explainContext indexes a detection run for record assembly. clf, det
// and the snapshot's crawl results may each be absent; the evidence
// simply shrinks to what is known.
func (p *Pipeline) explainContext(clf *Classifier, det *Detection, snapshot int) *explainCtx {
	ec := &explainCtx{
		clf:      clf,
		results:  map[string]*crawler.Result{},
		flagged:  map[string][2]*Flagged{},
		retries:  p.crawlerByProfile.HostRetries(),
		failures: p.crawlerByProfile.HostFailures(),
	}
	if rs, ok := p.crawls[snapshot]; ok {
		for i := range rs {
			ec.results[rs[i].Domain] = &rs[i]
		}
	}
	if det != nil {
		for i := range det.FlaggedWeb {
			f := &det.FlaggedWeb[i]
			pair := ec.flagged[f.Domain]
			pair[0] = f
			ec.flagged[f.Domain] = pair
		}
		for i := range det.FlaggedMobile {
			f := &det.FlaggedMobile[i]
			pair := ec.flagged[f.Domain]
			pair[1] = f
			ec.flagged[f.Domain] = pair
		}
	}
	return ec
}

// cacheEvidence explains where the domain's scan verdict came from: the
// delta engine's epoch stamps decide fresh-vs-cached for a candidate, and
// any other name is fresh at the engine's latest epoch — so a first scan
// reads "fresh, epoch 1" for every name.
func (p *Pipeline) cacheEvidence(domain string) *trace.CacheEvidence {
	ce := &trace.CacheEvidence{Fingerprint: fmt.Sprintf("%016x", p.Matcher.Fingerprint()), Source: "fresh"}
	pr, ok := p.delta.Provenance(domain)
	ce.Epoch = pr.Epoch
	if ok {
		ce.Epoch = pr.ComputedEpoch
		if pr.Cached {
			ce.Source = "cache"
		}
	}
	return ce
}

// mlEvidence scores one feature sample and explains the prediction:
// ensemble score, per-tree vote margin for forests, and the sparse
// feature vector. The score path is exactly the detection scan's
// (ClassifySample over sampleFor), so the reported score equals the one
// the verdict used.
func mlEvidence(clf *Classifier, s features.Sample) *trace.MLEvidence {
	vec := clf.Extractor.Vector(s)
	ev := &trace.MLEvidence{Dim: len(vec)}
	if rf, ok := clf.Model.(*ml.RandomForest); ok {
		d := rf.PredictVotes(vec)
		ev.Score, ev.Trees, ev.VotesFor, ev.Margin = d.Proba, d.Trees, d.VotesFor, d.Margin
	} else {
		ev.Score = clf.Model.PredictProba(vec)
	}
	for i, v := range vec {
		if v != 0 {
			ev.NonZero = append(ev.NonZero, trace.FeatureValue{Index: i, Value: v})
		}
	}
	return ev
}

// explainRecord assembles the full evidence record for one domain.
func (p *Pipeline) explainRecord(domain string, ec *explainCtx) *trace.Record {
	ex := p.Matcher.Explain(domain)
	rec := &trace.Record{
		Schema:  trace.SchemaVersion,
		Domain:  ex.Domain,
		Matcher: ex.Evidence(),
		Cache:   p.cacheEvidence(ex.Domain),
	}
	if r, ok := ec.results[ex.Domain]; ok {
		for pi, cap := range [2]crawler.Capture{r.Web, r.Mobile} {
			profile := "web"
			if pi == 1 {
				profile = "mobile"
			}
			pe := trace.ProfileEvidence{Profile: profile}
			hops := len(cap.RedirectChain) - 1
			if hops < 0 {
				hops = 0
			}
			pe.Crawl = &trace.CrawlEvidence{
				Live:       cap.Live,
				StatusCode: cap.StatusCode,
				Redirects:  hops,
				FinalHost:  cap.FinalHost,
				Retries:    ec.retries[ex.Domain],
				Failures:   ec.failures[ex.Domain],
			}
			verdict := &trace.VerdictEvidence{}
			if ec.clf != nil && cap.Live && !cap.Redirected() {
				pe.ML = mlEvidence(ec.clf, p.sampleFor(ex.Domain, &cap))
				verdict.Score = pe.ML.Score
				verdict.Flagged = pe.ML.Score >= 0.5
			}
			if f := ec.flagged[ex.Domain][pi]; f != nil {
				verdict.Flagged = true
				verdict.Score = f.Score
				verdict.Confirmed = f.Confirmed
			}
			pe.Verdict = verdict
			rec.Profiles = append(rec.Profiles, pe)
		}
	}
	if evs := p.Prov.EventsFor(ex.Domain); len(evs) > 0 {
		rec.Events = evs
	}
	return rec
}

// Explain builds the evidence record for a domain against a detection
// run: matcher rule and derived forms, cache provenance, per-profile
// crawl and classifier evidence, and any attributed events. clf and det
// may be nil (e.g. before detection ran); the record then carries
// matcher and cache evidence only.
func (p *Pipeline) Explain(domain string, clf *Classifier, det *Detection, snapshot int) *trace.Record {
	return p.explainRecord(domain, p.explainContext(clf, det, snapshot))
}

// Lookup resolves a domain to its provenance record for the
// /debug/verdict handler: the always-on store of flagged verdicts first,
// falling back to on-demand matcher and cache evidence for any other
// domain. The bool mirrors trace.VerdictHandler's contract; it is always
// true because matcher evidence exists for every name.
func (p *Pipeline) Lookup(domain string) (*trace.Record, bool) {
	if rec, ok := p.Prov.Get(domain); ok {
		return rec, true
	}
	ex := p.Matcher.Explain(domain)
	rec := &trace.Record{
		Schema:  trace.SchemaVersion,
		Domain:  ex.Domain,
		Matcher: ex.Evidence(),
		Cache:   p.cacheEvidence(ex.Domain),
	}
	if evs := p.Prov.EventsFor(ex.Domain); len(evs) > 0 {
		rec.Events = evs
	}
	return rec, true
}

// recordFlagged stores an evidence record for every flagged verdict of a
// detection run (always-on provenance: flagged domains never depend on
// head sampling) and emits one event per flagged domain.
func (p *Pipeline) recordFlagged(clf *Classifier, det *Detection, snapshot int) {
	if det == nil {
		return
	}
	ec := p.explainContext(clf, det, snapshot)
	domains := make([]string, 0, len(ec.flagged))
	for d := range ec.flagged {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		pair := ec.flagged[d]
		attrs := []trace.Attr{trace.String("domain", d)}
		if f := pair[0]; f != nil {
			attrs = append(attrs, trace.Float("web_score", f.Score))
		}
		if f := pair[1]; f != nil {
			attrs = append(attrs, trace.Float("mobile_score", f.Score))
		}
		p.Events.Info("core.detect.flagged", attrs...)
		p.Prov.Put(p.explainRecord(d, ec))
	}
}
