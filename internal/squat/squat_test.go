package squat

import (
	"strings"
	"testing"
	"testing/quick"

	"squatphi/internal/simrand"
)

// match invokes fn for each (patternIndex, endOffset) occurrence in text.
// Returning false from fn stops the scan early.
func (ac *ahoCorasick) match(text string, fn func(pat int32, end int) bool) {
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = ac.next[s][text[i]]
		for _, pi := range ac.output[s] {
			if !fn(pi, i+1) {
				return
			}
		}
	}
}

var testBrands = []Brand{
	NewBrand("facebook.com"),
	NewBrand("google.com"),
	NewBrand("paypal.com"),
	NewBrand("uber.com"),
	NewBrand("apple.com"),
	NewBrand("microsoft.com"),
	NewBrand("dropbox.com"),
	NewBrand("adp.com"),
	NewBrand("citizenslc.com"),
	NewBrand("bbc.co.uk"),
}

func TestSplitETLD(t *testing.T) {
	cases := []struct{ in, name, tld string }{
		{"facebook.com", "facebook", "com"},
		{"mail.google-app.de", "google-app", "de"},
		{"news.bbc.co.uk", "bbc", "co.uk"},
		{"google.com.ua", "google", "com.ua"},
		{"FACEBOOK.COM.", "facebook", "com"},
		{"localhost", "localhost", ""},
		{"a.b.c.d.example.org", "example", "org"},
	}
	for _, c := range cases {
		name, tld := SplitETLD(c.in)
		if name != c.name || tld != c.tld {
			t.Errorf("SplitETLD(%q) = (%q, %q), want (%q, %q)", c.in, name, tld, c.name, c.tld)
		}
	}
}

// splitETLDRef is SplitETLD as it stood before it stopped splitting: the
// oracle FuzzSplitETLD holds the substring version to.
func splitETLDRef(domain string) (name, tld string) {
	domain = strings.TrimSuffix(strings.ToLower(domain), ".")
	labels := strings.Split(domain, ".")
	if len(labels) == 1 {
		return labels[0], ""
	}
	if len(labels) >= 3 {
		two := labels[len(labels)-2] + "." + labels[len(labels)-1]
		if multiLabelSuffixes[two] {
			return labels[len(labels)-3], two
		}
	}
	return labels[len(labels)-2], labels[len(labels)-1]
}

func FuzzSplitETLD(f *testing.F) {
	for _, d := range []string{"facebook.com", "news.bbc.co.uk", "co.uk", ".co.uk", "x..co.uk", "FACEBOOK.COM.", "..", ".", "", "a.b.c", "bücher.DE", "\xff.com.ua", "xn--fcebook-8va.com"} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d string) {
		name, tld := SplitETLD(d)
		if wantName, wantTLD := splitETLDRef(d); name != wantName || tld != wantTLD {
			t.Fatalf("SplitETLD(%q) = (%q, %q), reference (%q, %q)", d, name, tld, wantName, wantTLD)
		}
	})
}

// TestSplitETLDZeroAlloc: a lowercase ASCII domain, what LMScore and
// Explain pass, splits without an allocation, under a two-label TLD too.
func TestSplitETLDZeroAlloc(t *testing.T) {
	for _, d := range []string{"mail.google-app.de", "news.bbc.co.uk", "localhost", "facebook.com."} {
		if n := testing.AllocsPerRun(100, func() { SplitETLD(d) }); n != 0 {
			t.Errorf("SplitETLD(%q) allocated %.0f times, want 0", d, n)
		}
	}
}

func TestBrandDomain(t *testing.T) {
	b := NewBrand("google.com.ua")
	if b.Domain() != "google.com.ua" {
		t.Errorf("Domain() = %q", b.Domain())
	}
}

func TestTypeString(t *testing.T) {
	if Homograph.String() != "homograph" || WrongTLD.String() != "wrongTLD" {
		t.Error("Type.String mismatch")
	}
	if Type(99).String() != "invalid" {
		t.Error("out-of-range Type.String")
	}
}

// Paper Table 1: examples of each squatting type for the facebook brand.
func TestMatchPaperTable1Examples(t *testing.T) {
	m := NewMatcher(testBrands)
	cases := []struct {
		domain string
		typ    Type
		brand  string
	}{
		{"faceb00k.pw", Homograph, "facebook"},
		{"xn--fcebook-8va.com", Homograph, "facebook"}, // fàcebook.com
		{"facebnok.tk", Bits, "facebook"},
		{"facebo0ok.com", Typo, "facebook"},
		{"fcaebook.org", Typo, "facebook"},
		{"facebook-story.de", Combo, "facebook"},
		{"facebook.audi", WrongTLD, "facebook"},
	}
	for _, c := range cases {
		got, ok := m.Match(c.domain)
		if !ok {
			t.Errorf("Match(%q) found nothing, want %v", c.domain, c.typ)
			continue
		}
		if got.Type != c.typ || got.Brand.Name != c.brand {
			t.Errorf("Match(%q) = (%v, %s), want (%v, %s)", c.domain, got.Type, got.Brand.Name, c.typ, c.brand)
		}
	}
}

// Paper Table 10: observed squatting phishing domains across brands.
func TestMatchPaperTable10Examples(t *testing.T) {
	m := NewMatcher(testBrands)
	cases := []struct {
		domain string
		typ    Type
		brand  string
	}{
		{"goog1e.nl", Homograph, "google"},
		{"googl4.nl", Typo, "google"},
		{"ggoogle.in", Typo, "google"},
		{"facebouk.net", Homograph, "facebook"}, // paper labels homograph; 'u' for 'o' is visually close — ours may classify differently, checked below
		{"faceboook.top", Typo, "facebook"},
		{"face-book.online", Combo, "facebook"}, // hyphenated split: contains "face"? matcher needs full brand -> see TestComboRequiresFullBrand
		{"facecook.mobi", Bits, "facebook"},
		{"facebook-c.com", Combo, "facebook"},
		{"apple-prizeuk.com", Combo, "apple"},
		{"go-uberfreight.com", Combo, "uber"},
		{"paypal-cash.com", Combo, "paypal"},
		{"ebay-selling.net", None, ""}, // ebay not in test brand set
		{"live-microsoftsupport.com", Combo, "microsoft"},
		{"dropbox-com.com", Combo, "dropbox"},
		{"mobile-adp.com", Combo, "adp"},
		{"securemail-citizenslc.com", Combo, "citizenslc"},
	}
	for _, c := range cases {
		got, ok := m.Match(c.domain)
		switch {
		case c.typ == None && ok:
			t.Errorf("Match(%q) = %v/%s, want no match", c.domain, got.Type, got.Brand.Name)
		case c.typ == None:
			// correctly unmatched
		case c.domain == "facebouk.net" || c.domain == "face-book.online":
			// These two are genuinely ambiguous across taxonomies; accept
			// any squatting type as long as the brand is right.
			if !ok || got.Brand.Name != c.brand {
				t.Errorf("Match(%q) = ok=%v brand=%s, want brand %s", c.domain, ok, got.Brand.Name, c.brand)
			}
		case !ok:
			t.Errorf("Match(%q) found nothing, want %v/%s", c.domain, c.typ, c.brand)
		case got.Type != c.typ || got.Brand.Name != c.brand:
			t.Errorf("Match(%q) = (%v, %s), want (%v, %s)", c.domain, got.Type, got.Brand.Name, c.typ, c.brand)
		}
	}
}

func TestOriginalDomainIsNotSquatting(t *testing.T) {
	m := NewMatcher(testBrands)
	for _, d := range []string{"facebook.com", "www.facebook.com", "google.com", "mail.google.com", "bbc.co.uk"} {
		if c, ok := m.Match(d); ok {
			t.Errorf("Match(%q) = %v/%s, want original (no match)", d, c.Type, c.Brand.Name)
		}
	}
}

func TestUnrelatedDomainsDoNotMatch(t *testing.T) {
	m := NewMatcher(testBrands)
	for _, d := range []string{"example.com", "weather.org", "zzz-qqq.net", "applied.com", "snapple.com"} {
		if c, ok := m.Match(d); ok {
			t.Errorf("Match(%q) = %v/%s, want no match", d, c.Type, c.Brand.Name)
		}
	}
}

func TestSubdomainsIgnored(t *testing.T) {
	m := NewMatcher(testBrands)
	c, ok := m.Match("mail.google-app.de")
	if !ok || c.Type != Combo || c.Brand.Name != "google" {
		t.Errorf("Match(mail.google-app.de) = %+v ok=%v, want combo/google", c, ok)
	}
}

func TestComboRequiresHyphen(t *testing.T) {
	m := NewMatcher(testBrands)
	// "facebooklogin.com" contains the brand but has no hyphen; the paper
	// restricts combo squatting to hyphenated concatenation.
	if c, ok := m.Match("facebooklogin.com"); ok && c.Type == Combo {
		t.Errorf("Match(facebooklogin.com) classified combo without hyphen")
	}
}

func TestWrongTLDAcrossMultiLabelSuffix(t *testing.T) {
	m := NewMatcher(testBrands)
	c, ok := m.Match("facebook.com.ua")
	if !ok || c.Type != WrongTLD {
		t.Errorf("Match(facebook.com.ua) = %+v ok=%v, want wrongTLD", c, ok)
	}
}

func TestGenerateMatchDuality(t *testing.T) {
	// Every generated candidate must be recognised by the matcher as a
	// squatting domain for the same brand with the same type.
	m := NewMatcher(testBrands)
	g := NewGenerator()
	for _, b := range testBrands {
		for _, cand := range g.Generate(b) {
			got, ok := m.Match(cand.Domain)
			if !ok {
				t.Errorf("generated %s (%v for %s) not matched", cand.Domain, cand.Type, b.Name)
				continue
			}
			// Cross-brand captures are possible (a typo of one brand may be
			// a combo of another); require agreement only when the matched
			// brand is the generating brand.
			if got.Brand.Name == b.Name && got.Type != cand.Type {
				// Precedence may reclassify: e.g. a typo that folds to the
				// brand skeleton is homograph. Accept homograph upgrades
				// and bits/typo overlap, reject anything else.
				if !precedenceCompatible(cand.Type, got.Type) {
					t.Errorf("generated %s as %v, matched as %v", cand.Domain, cand.Type, got.Type)
				}
			}
		}
	}
}

// precedenceCompatible reports whether a generated type may legitimately be
// reported as a different type under the matcher's precedence rules.
func precedenceCompatible(gen, matched Type) bool {
	if gen == matched {
		return true
	}
	switch {
	case matched == Homograph: // skeleton-equal edits are upgraded
		return true
	case gen == Typo && matched == Bits, gen == Bits && matched == Typo:
		return true // single-char substitutions can satisfy both definitions
	}
	return false
}

func TestGenerateCountsReasonable(t *testing.T) {
	g := NewGenerator()
	b := NewBrand("facebook.com")
	counts := map[Type]int{}
	for _, c := range g.Generate(b) {
		counts[c.Type]++
	}
	if counts[Typo] < 100 {
		t.Errorf("typo candidates = %d, want >= 100", counts[Typo])
	}
	if counts[Homograph] < 20 {
		t.Errorf("homograph candidates = %d, want >= 20", counts[Homograph])
	}
	if counts[Bits] < 10 {
		t.Errorf("bits candidates = %d, want >= 10", counts[Bits])
	}
	if counts[Combo] < 50 {
		t.Errorf("combo candidates = %d, want >= 50", counts[Combo])
	}
	if counts[WrongTLD] < 10 {
		t.Errorf("wrongTLD candidates = %d, want >= 10", counts[WrongTLD])
	}
}

func TestGenerateNoDuplicates(t *testing.T) {
	g := NewGenerator()
	seen := map[string]bool{}
	for _, c := range g.Generate(NewBrand("paypal.com")) {
		if seen[c.Domain] {
			t.Errorf("duplicate candidate %s", c.Domain)
		}
		seen[c.Domain] = true
	}
}

func TestGeneratedDomainsAreValidASCII(t *testing.T) {
	g := NewGenerator()
	for _, c := range g.Generate(NewBrand("google.com")) {
		for i := 0; i < len(c.Domain); i++ {
			ch := c.Domain[i]
			if !(ch >= 'a' && ch <= 'z' || ch >= '0' && ch <= '9' || ch == '-' || ch == '.') {
				t.Fatalf("candidate %q contains illegal byte %q", c.Domain, ch)
			}
		}
		label, _ := SplitETLD(c.Domain)
		if strings.HasPrefix(label, "-") || strings.HasSuffix(label, "-") {
			t.Fatalf("candidate %q has hyphen at label edge", c.Domain)
		}
	}
}

func TestBitFlipProperty(t *testing.T) {
	// Property: every bits candidate differs from the brand name in exactly
	// one position, and that position differs by exactly one bit.
	g := NewGenerator()
	for _, b := range testBrands {
		for _, c := range g.BitFlips(b) {
			label, _ := SplitETLD(c.Domain)
			if len(label) != len(b.Name) {
				t.Fatalf("bits candidate %q length differs from %q", label, b.Name)
			}
			diff := 0
			for i := range label {
				if label[i] != b.Name[i] {
					diff++
					if x := label[i] ^ b.Name[i]; x&(x-1) != 0 {
						t.Fatalf("bits candidate %q differs from %q by more than one bit at %d", label, b.Name, i)
					}
				}
			}
			if diff != 1 {
				t.Fatalf("bits candidate %q differs from %q in %d positions", label, b.Name, diff)
			}
		}
	}
}

func TestTypoEditDistanceProperty(t *testing.T) {
	g := NewGenerator()
	for _, c := range g.Typos(NewBrand("google.com")) {
		label, _ := SplitETLD(c.Domain)
		if d := editDistance(label, "google"); d == 0 || d > 2 {
			t.Fatalf("typo candidate %q has edit distance %d from google", label, d)
		}
	}
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func TestAhoCorasickFindsAllOccurrences(t *testing.T) {
	ac := newAhoCorasick([]string{"he", "she", "his", "hers"})
	var hits []string
	ac.match("ushers", func(pat int32, end int) bool {
		hits = append(hits, ac.pats[pat])
		return true
	})
	want := map[string]bool{"she": true, "he": true, "hers": true}
	if len(hits) != 3 {
		t.Fatalf("hits = %v, want she/he/hers", hits)
	}
	for _, h := range hits {
		if !want[h] {
			t.Fatalf("unexpected hit %q", h)
		}
	}
}

// TestAhoCorasickSizedExactly: the automaton's rows are allocated once, at
// the trie's state count, for patterns that repeat and prefix each other.
func TestAhoCorasickSizedExactly(t *testing.T) {
	ac := newAhoCorasick([]string{"hers", "he", "she", "his", "he", "h", "shell"})
	// root, h, he, her, hers, hi, his, s, sh, she, shel, shell
	if len(ac.next) != 12 || cap(ac.next) != len(ac.next) {
		t.Fatalf("automaton has %d states in rows of capacity %d, want 12 in 12", len(ac.next), cap(ac.next))
	}
}

func TestAhoCorasickEarlyStop(t *testing.T) {
	ac := newAhoCorasick([]string{"a"})
	n := 0
	ac.match("aaaa", func(pat int32, end int) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop scanned %d matches", n)
	}
}

func TestAhoCorasickAgainstContains(t *testing.T) {
	// Property: automaton hit iff strings.Contains hit, on random inputs.
	pats := []string{"face", "book", "pay", "goo", "drop"}
	ac := newAhoCorasick(pats)
	if err := quick.Check(func(seed uint64) bool {
		r := simrand.New(seed)
		s := r.Letters(3) + pats[r.Intn(len(pats))][:2] + r.Letters(4)
		found := map[string]bool{}
		ac.match(s, func(pat int32, end int) bool {
			found[pats[pat]] = true
			return true
		})
		for _, p := range pats {
			if strings.Contains(s, p) != found[p] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatcherConcurrentUse(t *testing.T) {
	m := NewMatcher(testBrands)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(seed uint64) {
			r := simrand.New(seed)
			for i := 0; i < 2000; i++ {
				m.Match(r.Letters(10) + ".com")
				m.Match("facebook-" + r.Letters(4) + ".net")
			}
			done <- true
		}(uint64(w))
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func BenchmarkMatcherMiss(b *testing.B) {
	m := NewMatcher(testBrands)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match("unrelated-domain-name.org")
	}
}

func BenchmarkMatcherComboHit(b *testing.B) {
	m := NewMatcher(testBrands)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match("secure-paypal-login.com")
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := NewGenerator()
	brand := NewBrand("facebook.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Generate(brand)
	}
}
