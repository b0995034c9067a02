package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion versions the Record wire format (see DESIGN.md §9). Bump
// it on any field change so stored trace files remain interpretable.
//
// v2: MatcherEvidence gained the brand-language-model fields (lm_score,
// lm_model) backing the "generated" squatting type.
const SchemaVersion = 2

// Record is the full evidence trail behind one domain's verdict. Every
// field is deterministic for a given world and configuration — records
// contain no wall-clock values and no worker-dependent state, so the
// same run produces byte-identical records at any parallelism. Attached
// Events carry no timestamp for the same reason.
type Record struct {
	// Schema is the record format version (SchemaVersion).
	Schema int `json:"schema"`
	// Domain is the subject, in lowercase ASCII (ACE) form.
	Domain string `json:"domain"`
	// Matcher explains the squatting classification.
	Matcher *MatcherEvidence `json:"matcher,omitempty"`
	// Cache explains where the scan verdict came from (fresh vs cached).
	Cache *CacheEvidence `json:"cache,omitempty"`
	// Profiles holds per-crawl-profile evidence (web, then mobile).
	Profiles []ProfileEvidence `json:"profiles,omitempty"`
	// Events are log events attributed to this domain (no timestamps).
	Events []Event `json:"events,omitempty"`
}

// MatcherEvidence explains a squat.Matcher classification: which rule
// fired, against which brand, and the derived forms the rule compared.
type MatcherEvidence struct {
	// Rule names the classification path, e.g. "homograph.skeleton" or
	// "none".
	Rule string `json:"rule"`
	// Type is the squatting type name ("homograph", ..., "none").
	Type string `json:"type"`
	// Brand is the matched brand's full domain ("" when unmatched).
	Brand string `json:"brand,omitempty"`
	// Label and TLD are the observed domain's registrable split.
	Label string `json:"label"`
	TLD   string `json:"tld,omitempty"`
	// Unicode is the IDN-decoded label when the observed label is ACE.
	Unicode string `json:"unicode,omitempty"`
	// Skeleton is the confusable skeleton of the (decoded) label.
	Skeleton string `json:"skeleton"`
	// BrandSkeleton is the matched brand name's skeleton.
	BrandSkeleton string `json:"brand_skeleton,omitempty"`
	// EditDistance is the Levenshtein distance between the (decoded)
	// label and the matched brand name; -1 when unmatched.
	EditDistance int `json:"edit_distance"`
	// LMScore and LMModel carry the brand-language-model evidence when a
	// model was attached to the matcher: the label's brand-likeness score
	// and the scoring model's fingerprint (fixed-width hex). Absent
	// entirely for model-less configurations, keeping v1-era records
	// byte-stable.
	LMScore float64 `json:"lm_score,omitempty"`
	LMModel string  `json:"lm_model,omitempty"`
}

// CacheEvidence explains a verdict's scan provenance under incremental
// scanning: whether the matcher actually ran for this domain in the
// latest scan, and at which epoch the cached verdict was computed.
type CacheEvidence struct {
	// Source is "fresh" (matcher ran in the verdict's epoch) or "cache"
	// (verdict reused from an earlier epoch via the deltascan verdict
	// cache or an unchanged shard).
	Source string `json:"source"`
	// Epoch is the scan epoch that computed the verdict (1-based; 0 means
	// the verdict predates epoch tracking, i.e. a legacy spill file).
	Epoch int `json:"epoch"`
	// Fingerprint is the matcher configuration fingerprint the verdict is
	// valid under, in fixed-width hex.
	Fingerprint string `json:"fingerprint"`
}

// ProfileEvidence is the per-crawl-profile part of the trail: what the
// crawler saw and how the classifier voted for that rendering profile.
type ProfileEvidence struct {
	// Profile is "web" or "mobile".
	Profile string `json:"profile"`
	// Crawl describes the capture; nil when the domain was never crawled.
	Crawl *CrawlEvidence `json:"crawl,omitempty"`
	// ML describes the classifier's decision; nil when no score was
	// computed (dead page or redirect off-host).
	ML *MLEvidence `json:"ml,omitempty"`
	// Verdict is the final flag decision for this profile.
	Verdict *VerdictEvidence `json:"verdict,omitempty"`
}

// CrawlEvidence summarises one capture plus the retry/fault history
// attributed to the domain's host across the run.
type CrawlEvidence struct {
	Live       bool   `json:"live"`
	StatusCode int    `json:"status_code,omitempty"`
	Redirects  int    `json:"redirects"`
	FinalHost  string `json:"final_host,omitempty"`
	// Retries and Failures are the crawler's per-host retry and failure
	// counts for this domain's host (whole run, both profiles).
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`
}

// MLEvidence explains the classifier score: the ensemble probability,
// the per-tree vote split, and the sparse feature vector that went in.
type MLEvidence struct {
	// Score is the ensemble probability of "phishing".
	Score float64 `json:"score"`
	// Trees, VotesFor and Margin describe the forest vote: how many trees
	// voted phishing (leaf probability >= 0.5) and the normalised margin
	// (VotesFor*2 - Trees)/Trees in [-1, 1]. All zero for non-forest
	// models.
	Trees    int     `json:"trees,omitempty"`
	VotesFor int     `json:"votes_for,omitempty"`
	Margin   float64 `json:"margin,omitempty"`
	// Dim is the feature vector dimensionality; NonZero its sparse form.
	Dim     int            `json:"dim"`
	NonZero []FeatureValue `json:"nonzero,omitempty"`
}

// FeatureValue is one non-zero feature vector entry.
type FeatureValue struct {
	Index int     `json:"i"`
	Value float64 `json:"v"`
}

// VerdictEvidence is the final per-profile decision.
type VerdictEvidence struct {
	Flagged bool `json:"flagged"`
	// Score repeats the deciding classifier score (0 when never scored).
	Score float64 `json:"score"`
	// Confirmed reports the blacklist cross-check for flagged domains.
	Confirmed bool `json:"confirmed,omitempty"`
}

// ftoa renders floats with the shortest exact representation — the same
// form encoding/json uses — so rendered text and JSON never disagree.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Render formats the record as a deterministic human-readable evidence
// trail, one property group per line.
func (r *Record) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "domain: %s\n", r.Domain)
	if m := r.Matcher; m != nil {
		fmt.Fprintf(&b, "matcher: rule=%s type=%s", m.Rule, m.Type)
		if m.Brand != "" {
			fmt.Fprintf(&b, " brand=%s", m.Brand)
		}
		fmt.Fprintf(&b, " label=%s", m.Label)
		if m.TLD != "" {
			fmt.Fprintf(&b, " tld=%s", m.TLD)
		}
		if m.Unicode != "" {
			fmt.Fprintf(&b, " unicode=%s", m.Unicode)
		}
		fmt.Fprintf(&b, " skeleton=%s", m.Skeleton)
		if m.BrandSkeleton != "" {
			fmt.Fprintf(&b, " brand_skeleton=%s", m.BrandSkeleton)
		}
		fmt.Fprintf(&b, " edit_distance=%d", m.EditDistance)
		if m.LMModel != "" {
			fmt.Fprintf(&b, " lm_score=%s lm_model=%s", ftoa(m.LMScore), m.LMModel)
		}
		b.WriteByte('\n')
	}
	if c := r.Cache; c != nil {
		fmt.Fprintf(&b, "cache: source=%s epoch=%d fingerprint=%s\n", c.Source, c.Epoch, c.Fingerprint)
	}
	for _, p := range r.Profiles {
		fmt.Fprintf(&b, "profile %s:\n", p.Profile)
		if cr := p.Crawl; cr != nil {
			fmt.Fprintf(&b, "  crawl: live=%t status=%d redirects=%d", cr.Live, cr.StatusCode, cr.Redirects)
			if cr.FinalHost != "" {
				fmt.Fprintf(&b, " final_host=%s", cr.FinalHost)
			}
			fmt.Fprintf(&b, " retries=%d failures=%d\n", cr.Retries, cr.Failures)
		}
		if ml := p.ML; ml != nil {
			fmt.Fprintf(&b, "  ml: score=%s", ftoa(ml.Score))
			if ml.Trees > 0 {
				fmt.Fprintf(&b, " trees=%d votes_for=%d margin=%s", ml.Trees, ml.VotesFor, ftoa(ml.Margin))
			}
			fmt.Fprintf(&b, " dim=%d nonzero=%d\n", ml.Dim, len(ml.NonZero))
		}
		if v := p.Verdict; v != nil {
			state := "clean"
			if v.Flagged {
				state = "FLAGGED"
			}
			fmt.Fprintf(&b, "  verdict: %s score=%s", state, ftoa(v.Score))
			if v.Flagged {
				fmt.Fprintf(&b, " confirmed=%t", v.Confirmed)
			}
			b.WriteByte('\n')
		}
	}
	if len(r.Events) > 0 {
		fmt.Fprintf(&b, "events: %d\n", len(r.Events))
		for _, ev := range r.Events {
			fmt.Fprintf(&b, "  [%s] %s %s", ev.Level, ev.Component, ev.Name)
			writeAttrs(&b, ev.Attrs)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// writeAttrs renders event attrs sorted by key, matching the JSON form.
func writeAttrs(b *strings.Builder, attrs map[string]any) {
	if len(attrs) == 0 {
		return
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%v", k, attrs[k])
	}
}
