// Package squat implements the squatting-domain component of SquatPhi
// (paper §3.1): generation of candidate squatting domains for a target brand
// and classification of observed DNS domains into the five squatting types —
// homograph, typo, bits, combo, and wrongTLD.
//
// The five types are defined to be orthogonal (each domain is assigned at
// most one type), matching the paper's measurement methodology. The package
// serves two callers: a dnstwist-style candidate generator (cmd/squatgen)
// and a bulk matcher that scans hundreds of millions of DNS records
// (internal/core pipeline, Figure 2).
package squat

import "strings"

// Type identifies one of the five squatting techniques from the paper,
// or None for domains that match no technique.
type Type int

// Squatting types in the paper's precedence order. When a domain could be
// labelled with several types, the matcher assigns the first that applies,
// keeping the measurement categories disjoint.
const (
	None Type = iota
	Homograph
	Bits
	Typo
	Combo
	WrongTLD
	// Generated marks a domain flagged by the attached brand-language
	// model (internal/domlm): statistically brand-charged names that match
	// none of the paper's five rule-based types. It exists only when a
	// model is attached (Matcher.AttachLM) and carries no single brand
	// attribution — the model scores against the whole brand universe.
	Generated
)

var typeNames = [...]string{"none", "homograph", "bits", "typo", "combo", "wrongTLD", "generated"}

func (t Type) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return "invalid"
	}
	return typeNames[t]
}

// AllTypes lists the five squatting types from the paper in presentation
// order (Figure 2). Generated is deliberately absent: the paper's
// measurement categories are the five rule-based types, and the
// experiments that iterate AllTypes pin that universe.
var AllTypes = []Type{Homograph, Bits, Typo, Combo, WrongTLD}

// MatchTypes lists every type the matcher can emit: the five paper types
// plus Generated (only produced when a brand-language model is
// attached). Instrumentation and verdict logging iterate this set.
var MatchTypes = []Type{Homograph, Bits, Typo, Combo, WrongTLD, Generated}

// Brand is a protected target: a registrable domain an attacker may
// impersonate. Name is the registrable label ("facebook"), TLD the
// effective top-level domain ("com", "com.ua").
type Brand struct {
	Name string
	TLD  string
}

// Domain returns the brand's full domain name.
func (b Brand) Domain() string { return b.Name + "." + b.TLD }

// NewBrand parses a domain like "facebook.com" or "google.com.ua" into a
// Brand using the effective-TLD list.
func NewBrand(domain string) Brand {
	name, tld := SplitETLD(domain)
	return Brand{Name: name, TLD: tld}
}

// multiLabelSuffixes lists effective TLDs that span two labels. A compact
// curated set is enough for the synthetic world; real deployments would load
// the full public-suffix list.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.ua": true, "com.br": true, "com.au": true, "com.cn": true,
	"com.mx": true, "com.tr": true, "com.uy": true, "com.ar": true,
	"co.jp": true, "co.kr": true, "co.in": true, "co.za": true, "co.nz": true,
	"com.sg": true, "com.hk": true, "com.tw": true, "net.cn": true,
	"org.br": true, "gov.br": true, "nih.gov": true,
}

// SplitETLD splits a fully-qualified domain into its registrable label and
// effective TLD, dropping any subdomains. "mail.google-app.de" yields
// ("google-app", "de"); "news.bbc.co.uk" yields ("bbc", "co.uk").
// A bare label yields ("label", ""). Both results are substrings of the
// lowercased domain, so lowercase ASCII input costs no allocation.
func SplitETLD(domain string) (name, tld string) {
	domain = strings.TrimSuffix(strings.ToLower(domain), ".")
	last := strings.LastIndexByte(domain, '.')
	if last < 0 {
		return domain, ""
	}
	// Try a two-label effective TLD first.
	prev := strings.LastIndexByte(domain[:last], '.')
	if prev >= 0 && multiLabelSuffixes[domain[prev+1:]] {
		return domain[strings.LastIndexByte(domain[:prev], '.')+1 : prev], domain[prev+1:]
	}
	return domain[prev+1 : last], domain[last+1:]
}

// Candidate is a generated or matched squatting domain for a brand.
type Candidate struct {
	Domain string // ASCII form, e.g. "xn--fcebook-8va.com"
	Type   Type
	Brand  Brand
}
