package squat

import (
	"fmt"
	"strings"

	"squatphi/internal/confusables"
	"squatphi/internal/obs/trace"
	"squatphi/internal/punycode"
)

// Rule names for each classification path, in the precedence order of
// classify. These are provenance identifiers (DESIGN.md §9): stable
// strings an analyst can grep for, versioned implicitly by
// matchRulesVersion.
const (
	RuleExactName      = "wrongtld.exact_name"
	RuleSkeleton       = "homograph.skeleton"
	RuleBitsEdit       = "bits.edit_table"
	RuleTypoEdit       = "typo.edit_table"
	RuleBrandSubstring = "combo.brand_substring"
	RuleGenerated      = "generated.lm_score"
	RuleNone           = "none"
)

// Explanation is the full evidence behind one Match verdict: which rule
// fired, against which brand, and the derived forms (IDN decode,
// confusable skeleton, edit distance) the rule compared. It is computed
// by re-running the classification, so it is exactly as deterministic as
// Match itself and can be produced after the fact for any domain —
// including candidates deltascan carried over from an earlier epoch,
// where the matcher never ran during the scan.
type Explanation struct {
	// Domain is the normalised subject (lowercase, no trailing dot).
	Domain string
	// Label and TLD are the registrable split of the observed domain.
	Label string
	TLD   string
	// Matched mirrors Match's verdict; Type/Brand the candidate fields.
	Matched bool
	Type    Type
	Brand   Brand
	// Rule names the classification path that decided (Rule* constants).
	Rule string
	// Unicode is the IDN-decoded label when the observed label is ACE
	// ("" for plain ASCII labels).
	Unicode string
	// Skeleton is the confusable skeleton of the (decoded) label;
	// BrandSkeleton that of the matched brand's name ("" when unmatched).
	Skeleton      string
	BrandSkeleton string
	// EditDistance is the Levenshtein distance between the (decoded)
	// label and the matched brand's name; -1 when unmatched.
	EditDistance int
	// LMScore is the brand-language-model score of the label (0 when no
	// model is attached); LMModel the scoring model's fingerprint in
	// fixed-width hex ("" when no model is attached). Present on every
	// explanation — not just Generated hits — so analysts can see how
	// close a rule-matched or unmatched label sat to the threshold.
	LMScore float64
	LMModel string
}

// Explain classifies domain like Match and returns the full evidence
// trail. It is not a hot-path API: the scan loop records verdicts only,
// and evidence is reconstructed here on demand (debug handler, explain
// CLI, flagged-verdict provenance).
func (m *Matcher) Explain(domain string) Explanation {
	c, ok := m.classify(domain)
	label, tld := SplitETLD(domain)
	ex := Explanation{
		Domain:       strings.ToLower(strings.TrimSuffix(domain, ".")),
		Label:        label,
		TLD:          tld,
		Matched:      ok,
		Rule:         RuleNone,
		EditDistance: -1,
	}
	uni := label
	if punycode.IsACE(label) {
		uni, _ = SplitETLD(punycode.ToUnicode(domain))
		ex.Unicode = uni
	}
	ex.Skeleton = confusables.Skeleton(uni)
	if m.lm != nil {
		ex.LMScore = m.lm.ScoreLabel(uni)
		ex.LMModel = fmt.Sprintf("%016x", m.lm.Fingerprint())
	}
	if !ok {
		return ex
	}
	ex.Type, ex.Brand = c.Type, c.Brand
	if c.Brand.Name != "" {
		ex.BrandSkeleton = confusables.Skeleton(c.Brand.Name)
		ex.EditDistance = levenshtein(uni, c.Brand.Name)
	}
	switch c.Type {
	case WrongTLD:
		ex.Rule = RuleExactName
	case Homograph:
		ex.Rule = RuleSkeleton
	case Bits:
		ex.Rule = RuleBitsEdit
	case Typo:
		ex.Rule = RuleTypoEdit
	case Combo:
		ex.Rule = RuleBrandSubstring
	case Generated:
		ex.Rule = RuleGenerated
	}
	return ex
}

// Evidence converts the explanation to its provenance-record form.
func (ex Explanation) Evidence() *trace.MatcherEvidence {
	ev := &trace.MatcherEvidence{
		Rule:          ex.Rule,
		Type:          ex.Type.String(),
		Label:         ex.Label,
		TLD:           ex.TLD,
		Unicode:       ex.Unicode,
		Skeleton:      ex.Skeleton,
		BrandSkeleton: ex.BrandSkeleton,
		EditDistance:  ex.EditDistance,
		LMScore:       ex.LMScore,
		LMModel:       ex.LMModel,
	}
	if ex.Matched && ex.Brand.Name != "" {
		ev.Brand = ex.Brand.Domain()
	}
	return ev
}

// levenshtein computes the edit distance between two strings by rune,
// with unit costs. Labels are short (tens of runes), so the O(len*len)
// two-row form is plenty.
func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			del := prev[j] + 1
			ins := cur[j-1] + 1
			sub := prev[j-1] + cost
			min := del
			if ins < min {
				min = ins
			}
			if sub < min {
				min = sub
			}
			cur[j] = min
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}
