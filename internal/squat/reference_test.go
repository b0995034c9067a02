package squat

import (
	"strings"
	"testing"
	"unicode/utf8"

	"squatphi/internal/confusables"
	"squatphi/internal/punycode"
	"squatphi/internal/simrand"
)

// refMatcher is the independent oracle: the five rules restated over plain
// maps filled from Generator enumeration alone. It shares nothing with
// Matcher — no index, no filter, no automaton, no byte path — so agreement
// between the two is evidence about both, not about a shared table.
type refMatcher struct {
	brands     []Brand
	byName     map[string]int     // brand label -> brand (last of equal names)
	bySkeleton map[string]int     // skeleton of brand label -> brand (last of equal skeletons)
	edits      map[string]refEdit // generated bits/typo label -> owner
}

type refEdit struct {
	brand int
	typ   Type
}

func newRefMatcher(brands []Brand) *refMatcher {
	r := &refMatcher{
		brands:     brands,
		byName:     map[string]int{},
		bySkeleton: map[string]int{},
		edits:      map[string]refEdit{},
	}
	for i, b := range brands {
		r.byName[b.Name] = i
		r.bySkeleton[confusables.Skeleton(b.Name)] = i
	}
	gen := NewGenerator()
	for i, b := range brands {
		for _, c := range append(gen.BitFlips(b), gen.Typos(b)...) {
			label, _ := SplitETLD(c.Domain)
			if _, isBrand := r.byName[label]; isBrand {
				continue // a brand's own name is never somebody's typo
			}
			// Paper precedence (bits before typo) decides a label two rules
			// generate; the earlier brand keeps one two brands generate.
			if prev, ok := r.edits[label]; ok && prev.typ <= c.Type {
				continue
			}
			r.edits[label] = refEdit{brand: i, typ: c.Type}
		}
	}
	return r
}

// classify is the pre-optimization string classify: it re-splits per rule,
// allocates freely, and finds combo brands by substring search.
func (r *refMatcher) classify(domain string) (Candidate, bool) {
	label, tld := SplitETLD(domain)
	if label == "" {
		return Candidate{}, false
	}
	if bi, ok := r.byName[label]; ok {
		if r.brands[bi].TLD == tld {
			return Candidate{}, false
		}
		return r.candidate(domain, WrongTLD, bi), true
	}
	uni := label
	if punycode.IsACE(label) {
		uni, _ = SplitETLD(punycode.ToUnicode(domain))
	}
	if bi, ok := r.bySkeleton[confusables.Skeleton(uni)]; ok {
		return r.candidate(domain, Homograph, bi), true
	}
	if e, ok := r.edits[label]; ok {
		return r.candidate(domain, e.typ, e.brand), true
	}
	if strings.Contains(label, "-") {
		// The longest brand name occurring in the label; among equals the
		// occurrence ending first, then the earlier brand.
		found := -1
		for end := 1; end <= len(label); end++ {
			for bi, b := range r.brands {
				if strings.HasSuffix(label[:end], b.Name) && (found == -1 || len(b.Name) > len(r.brands[found].Name)) {
					found = bi
				}
			}
		}
		if found >= 0 {
			return r.candidate(domain, Combo, found), true
		}
	}
	return Candidate{}, false
}

func (r *refMatcher) candidate(domain string, t Type, brand int) Candidate {
	return Candidate{Domain: strings.ToLower(strings.TrimSuffix(domain, ".")), Type: t, Brand: r.brands[brand]}
}

// collidingBrands is a brand set built to make the index's precedence
// rules fire: "apple" is the omission typo of "apples" (brand name beats
// edit), "goole"/"google" and "paypal"/"paypak" generate each other and
// shared neighbours under different rules (lower type wins, then the
// earlier brand), "cloud" is not its own skeleton and "doud" is that
// skeleton, and "x-y" carries the combo rule's hyphen in its own name.
var collidingBrands = []Brand{
	NewBrand("apples.com"), NewBrand("apple.com"),
	NewBrand("google.com"), NewBrand("goole.com"),
	NewBrand("paypal.com"), NewBrand("paypak.com"),
	NewBrand("cloud.io"), NewBrand("doud.net"),
	NewBrand("ab.com"), NewBrand("x-y.org"),
}

var referenceSets = [][]Brand{parityBrands, collidingBrands, testBrands}

func upperASCII(s string) string {
	return strings.Map(func(r rune) rune {
		if 'a' <= r && r <= 'z' {
			return r - 'a' + 'A'
		}
		return r
	}, s)
}

// checkAgainstReference holds one raw input to everything the oracle and
// the metamorphic properties demand of it.
func checkAgainstReference(t *testing.T, m *Matcher, ref *refMatcher, raw string) {
	t.Helper()
	raw = trimExtraDots(raw)
	norm := strings.ToLower(strings.TrimSuffix(raw, "."))
	wantC, wantOK := ref.classify(norm)
	var s Scratch
	if c, ok := m.MatchBytes([]byte(raw), &s); ok != wantOK || c != wantC {
		t.Fatalf("MatchBytes(%q) = (%+v, %v), reference (%+v, %v)", raw, c, ok, wantC, wantOK)
	}
	if c, ok := m.MatchString(raw, &s); ok != wantOK || c != wantC {
		t.Fatalf("MatchString(%q) = (%+v, %v), reference (%+v, %v)", raw, c, ok, wantC, wantOK)
	}

	// Case and one trailing dot are spelling, not identity. (ASCII case
	// only: ToUpper is not invertible over Unicode, e.g. ß.)
	if strings.ToLower(upperASCII(norm)) == norm && !strings.HasSuffix(norm, ".") {
		for _, variant := range []string{upperASCII(norm), norm + ".", upperASCII(norm) + "."} {
			if c, ok := m.MatchBytes([]byte(variant), &s); ok != wantOK || c != wantC {
				t.Fatalf("MatchBytes(%q) = (%+v, %v), but (%+v, %v) for %q", variant, c, ok, wantC, wantOK, norm)
			}
		}
	}

	// An IDN and its xn-- form are one name. The combo rule is exempt: it
	// reads the label's bytes, and the ASCII letters an ACE label is left
	// with ("payöpal" -> "xn--paypal-...") can spell a brand the Unicode
	// form does not contain — rules version 1 behaviour, pinned by goldens.
	if utf8.ValidString(norm) {
		if ace, err := punycode.ToASCII(norm); err == nil && ace != norm && punycode.ToUnicode(ace) == norm {
			c, ok := m.MatchBytes([]byte(ace), &s)
			same := ok == wantOK && c.Type == wantC.Type && c.Brand == wantC.Brand // up to the spelling of Domain
			if c.Type != Combo && wantC.Type != Combo && !same {
				t.Fatalf("MatchBytes(%q) = (%+v, %v), but (%+v, %v) for its Unicode form %q", ace, c, ok, wantC, wantOK, norm)
			}
		}
	}

	// A brand's own domain and everything under it is the original site.
	for _, b := range m.Brands() {
		if wantOK && (norm == b.Domain() || strings.HasSuffix(norm, "."+b.Domain())) {
			t.Fatalf("Match(%q) = %+v: inside brand domain %s", raw, wantC, b.Domain())
		}
	}
}

// FuzzMatchVsReference drives the matcher against the independent oracle
// and the metamorphic properties over several brand sets, the colliding
// one included.
func FuzzMatchVsReference(f *testing.F) {
	for i, d := range matchParityCorpus {
		f.Add(d, uint8(i))
	}
	for _, d := range []string{"apple.com", "apples.net", "aple.com", "gogle.com", "goolle.com", "paypam.com", "payöpal.com", "ab-x.com", "x-y.com", "c1oud.com", "www.doud.net"} {
		f.Add(d, uint8(1))
	}
	ms := make([]*Matcher, len(referenceSets))
	refs := make([]*refMatcher, len(referenceSets))
	for i, bs := range referenceSets {
		ms[i], refs[i] = NewMatcher(bs), newRefMatcher(bs)
	}
	f.Fuzz(func(t *testing.T, raw string, set uint8) {
		i := int(set) % len(referenceSets)
		checkAgainstReference(t, ms[i], refs[i], raw)
	})
}

// TestMatchVsReferenceGenerated holds every brand set to the oracle on the
// inputs that matter most: everything the Generator can mint for it, in
// four spellings each, plus the brands' own domains and subdomains.
func TestMatchVsReferenceGenerated(t *testing.T) {
	gen := NewGenerator()
	for _, bs := range referenceSets {
		m, ref := NewMatcher(bs), newRefMatcher(bs)
		for _, b := range bs {
			for _, c := range gen.Generate(b) {
				checkAgainstReference(t, m, ref, c.Domain)
				if punycode.IsACE(c.Domain) {
					checkAgainstReference(t, m, ref, punycode.ToUnicode(c.Domain))
				}
			}
			for _, d := range []string{b.Domain(), "www." + b.Domain(), "a.b." + b.Domain(), strings.ToUpper(b.Domain()) + "."} {
				checkAgainstReference(t, m, ref, d)
				if c, ok := m.Match(d); ok {
					t.Errorf("Match(%q) = %+v, want the original site to miss", d, c)
				}
			}
		}
	}
}

// TestMatchVsReferenceMutations is the fuzz target's deterministic
// stand-in for runs that never fuzz: seeded one-to-three byte edits of
// generated squats and corpus entries, each held to the oracle and the
// metamorphic properties. Edits of a squat land on and around index keys,
// which is where a wrong gate or a lost precedence rule would show.
func TestMatchVsReferenceMutations(t *testing.T) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789--..AZ01lo\xc3\xa0"
	gen := NewGenerator()
	for si, bs := range referenceSets {
		m, ref := NewMatcher(bs), newRefMatcher(bs)
		seeds := append([]string(nil), matchParityCorpus...)
		for _, b := range bs {
			for _, c := range gen.Generate(b) {
				seeds = append(seeds, c.Domain)
			}
		}
		r := simrand.New(uint64(si)).Split("mutations")
		for i := 0; i < 20_000; i++ {
			d := []byte(seeds[r.Intn(len(seeds))])
			for edits := 1 + r.Intn(3); edits > 0 && len(d) > 0; edits-- {
				at, c := r.Intn(len(d)), alphabet[r.Intn(len(alphabet))]
				switch r.Intn(3) {
				case 0:
					d[at] = c
				case 1:
					d = append(d[:at], append([]byte{c}, d[at:]...)...)
				default:
					d = append(d[:at], d[at+1:]...)
				}
			}
			checkAgainstReference(t, m, ref, string(d))
		}
	}
}

// TestMetamorphicIDN: benign IDNs miss in both spellings, and every IDN
// homograph the Generator mints is a Homograph of its brand in both.
func TestMetamorphicIDN(t *testing.T) {
	m := NewMatcher(parityBrands)
	for _, uni := range []string{"münchen.de", "日本語.jp", "café-crème.fr", "пример.com"} {
		ace, err := punycode.ToASCII(uni)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := m.Match(uni); ok {
			t.Errorf("Match(%q) = %+v, want a miss", uni, c)
		}
		if c, ok := m.Match(ace); ok {
			t.Errorf("Match(%q) = %+v, want a miss", ace, c)
		}
	}
	gen, n := NewGenerator(), 0
	for _, b := range parityBrands {
		for _, c := range gen.Homographs(b) {
			if !punycode.IsACE(c.Domain) {
				continue
			}
			n++
			for _, d := range []string{c.Domain, punycode.ToUnicode(c.Domain)} {
				got, ok := m.Match(d)
				if !ok || got.Type != Homograph || confusables.Skeleton(got.Brand.Name) != confusables.Skeleton(b.Name) {
					t.Errorf("Match(%q) = (%+v, %v), want a homograph of %s", d, got, ok, b.Name)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the generator minted no IDN homograph")
	}
}

// TestEditPrecedence restates addEdit's collision rules against the one
// index — brand name beats edit, the lower type wins, then the earlier
// brand — on labels that collide in collidingBrands. Owners, rules and the
// fingerprint were recorded from the three-map matcher this index replaced.
func TestEditPrecedence(t *testing.T) {
	m := NewMatcher(collidingBrands)
	if got, want := m.Fingerprint(), uint64(0xb6db0a49a763f406); got != want {
		t.Errorf("Fingerprint() = %#x, want %#x (3710 edit labels, 9 skeletons)", got, want)
	}
	cases := []struct {
		domain string
		typ    Type
		brand  string // "" = miss
		rule   string
	}{
		{"apple.com", None, "", RuleNone}, // omission typo of apples, but a brand's own site
		{"apple.net", WrongTLD, "apple.com", RuleExactName},
		{"applas.com", Bits, "apples.com", RuleBitsEdit},
		{"appls.com", Typo, "apples.com", RuleTypoEdit},  // omission of apples, replacement of apple: earlier brand
		{"applee.com", Typo, "apples.com", RuleTypoEdit}, // replacement of apples, repetition of apple: earlier brand
		{"gogle.com", Bits, "goole.com", RuleBitsEdit},   // bit flip of goole beats omission of google: lower type
		{"goolle.com", Typo, "google.com", RuleTypoEdit}, // replacement of google, repetition of goole: earlier brand
		{"goolee.com", Typo, "goole.com", RuleTypoEdit},
		{"paypak.net", WrongTLD, "paypak.com", RuleExactName}, // a bit flip of paypal, but a brand name
		{"paypaj.com", Bits, "paypak.com", RuleBitsEdit},      // bit flip of paypak beats replacement of paypal
		{"paypam.com", Bits, "paypal.com", RuleBitsEdit},      // bit flip of both: earlier brand
		{"doud.com", WrongTLD, "doud.net", RuleExactName},     // name beats skeleton (of cloud)
		{"c1oud.com", Homograph, "doud.net", RuleSkeleton},    // equal skeletons: the later brand
		{"eoud.com", Bits, "doud.net", RuleBitsEdit},
		{"dloud.io", Typo, "cloud.io", RuleTypoEdit},
		{"x-y.com", WrongTLD, "x-y.org", RuleExactName},
		{"x-y-z.com", Combo, "x-y.org", RuleBrandSubstring},
		{"xy.org", Typo, "x-y.org", RuleTypoEdit},
	}
	for _, c := range cases {
		got, ok := m.Match(c.domain)
		if ok != (c.brand != "") || got.Type != c.typ || (ok && got.Brand.Domain() != c.brand) {
			t.Errorf("Match(%q) = (%+v, %v), want (%v, %q)", c.domain, got, ok, c.typ, c.brand)
		}
		if ex := m.Explain(c.domain); ex.Rule != c.rule || ex.Matched != ok {
			t.Errorf("Explain(%q).Rule = %q (matched %v), want %q", c.domain, ex.Rule, ex.Matched, c.rule)
		}
	}
}
