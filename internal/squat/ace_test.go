package squat

import (
	"strings"
	"testing"
	"unicode"

	"squatphi/internal/confusables"
	"squatphi/internal/punycode"
)

// refACESkeleton is the string composition aceSkeleton ran before it moved
// onto bytes — decode the domain, split it again, fold the label — kept as
// the reference the byte path is held to.
func refACESkeleton(norm string) string {
	uni, _ := SplitETLD(punycode.ToUnicode(norm))
	return confusables.Skeleton(uni)
}

// mustEncode returns the xn-- form of one Unicode label.
func mustEncode(t testing.TB, label string) string {
	t.Helper()
	enc, err := punycode.Encode(label)
	if err != nil {
		t.Fatal(err)
	}
	return "xn--" + enc
}

// aceParitySeeds are the shapes where the byte path could part from the
// reference: decoding changes the eTLD split, the decoded label needs
// lowering, or the label is not punycode at all.
func aceParitySeeds(t testing.TB) []string {
	return []string{
		"xn--pypal-4ve.com",
		"xn--fcebook-8va.com",
		"paypal.xn--co-.uk",      // decodes to paypal.co.uk: the suffix becomes two labels
		"paypal.xn--p1ai",        // an ACE TLD
		"xn--pypal-4ve.xn--p1ai", // an ACE label under an ACE TLD
		"a..",                    // two trailing dots: one survives normalization
		"xn--pypal-4ve.com..",
		"x.co." + mustEncode(t, "Kr"), // Kelvin sign + r lowers to "kr": co.kr
		mustEncode(t, "payKal") + ".com",
		"xn--invalid!!.com",      // not punycode
		"xn--99999999999999.com", // overflows
		"xn--a-\x80.com",         // non-ASCII after the prefix
		"XN--PYPAL-4VE.COM",      // upper-case prefix and digits
		"Xn--Fcebook-8vA.Com.",
		"xn--" + strings.Repeat("a", 60) + ".com", // a 64-byte label
		"xn--", // the prefix alone
		"xn--.com",
		"xn---.xn--.xn---",
		"www.xn--pypal-4ve.co.uk",
		"",
		".",
	}
}

// checkACEParity holds aceSkeleton to refACESkeleton on one raw domain,
// normalized the way the match entry points normalize it: the same
// skeleton bytes, hence the same index answer.
func checkACEParity(t testing.TB, m *Matcher, s *Scratch, raw string) {
	t.Helper()
	norm := appendNormalized(nil, raw)
	want := refACESkeleton(string(norm))
	got := m.aceSkeleton(norm, s)
	if string(s.skel) != want {
		t.Fatalf("aceSkeleton(%q): skeleton %q, reference %q", norm, s.skel, want)
	}
	if wantIdx := m.lookup([]byte(want)).skel; got != wantIdx {
		t.Fatalf("aceSkeleton(%q) = %d, reference skeleton %q is brand %d", norm, got, want, wantIdx)
	}
}

// TestACESkeletonParity runs the seeds, then every homograph the
// generator mints for the parity brands under one- and two-label
// suffixes.
func TestACESkeletonParity(t *testing.T) {
	m := parityMatcher()
	var s Scratch
	for _, raw := range aceParitySeeds(t) {
		checkACEParity(t, m, &s, raw)
	}
	// The two re-split seeds do what their comments say.
	for raw, want := range map[string]string{
		"paypal.xn--co-.uk":           "paypal",
		"x.co." + mustEncode(t, "Kr"): "x",
	} {
		if got := refACESkeleton(raw); got != want {
			t.Errorf("refACESkeleton(%q) = %q, want %q", raw, got, want)
		}
	}
	gen := NewGenerator()
	n := 0
	for _, b := range parityBrands {
		for _, c := range gen.Homographs(b) {
			checkACEParity(t, m, &s, c.Domain)
			checkACEParity(t, m, &s, "www."+strings.ToUpper(c.Domain)+".")
			n++
		}
	}
	if n == 0 {
		t.Fatal("the generator minted no homographs")
	}
}

// FuzzACESkeletonParity extends the parity to arbitrary input.
func FuzzACESkeletonParity(f *testing.F) {
	for _, raw := range aceParitySeeds(f) {
		f.Add(raw)
	}
	m := parityMatcher()
	f.Fuzz(func(t *testing.T, raw string) {
		var s Scratch
		checkACEParity(t, m, &s, raw)
	})
}

// TestToLowerIdempotent pins what lets aceSkeleton copy the undecoded
// labels of a normalized domain where the reference lowers them again:
// lowering a lowered rune changes nothing.
func TestToLowerIdempotent(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); unicode.ToLower(l) != l {
			t.Fatalf("ToLower(%U) = %U lowers again to %U", r, l, unicode.ToLower(l))
		}
	}
}
