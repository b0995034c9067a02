package confusables

import (
	"testing"
	"testing/quick"
)

// Fold returns the ASCII prototype for r, or r itself if none is known.
// Prototypes are fully folded themselves: Fold('з') is "e", not "3",
// because '3' in turn imitates "e".
func Fold(r rune) string {
	if p, ok := fold[r]; ok {
		return p
	}
	return string(r)
}

func TestFoldKnown(t *testing.T) {
	cases := []struct {
		in   rune
		want string
	}{
		{'à', "a"}, {'0', "o"}, {'1', "l"}, {'а', "a"}, {'κ', "k"},
		{'æ', "ae"}, {'ß', "ss"}, {'x', "x"}, {'q', "q"},
	}
	for _, c := range cases {
		if got := Fold(c.in); got != c.want {
			t.Errorf("Fold(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSkeletonHomographs(t *testing.T) {
	cases := []struct{ a, b string }{
		{"fàcebook.com", "facebook.com"},
		{"faceb00k.pw", "facebook.pw"},   // paper Table 1
		{"gооgle.com", "google.com"},     // Cyrillic о
		{"facebooκ.com", "facebook.com"}, // paper Table 10, Greek κ
		{"paypa1.com", "paypal.com"},
		{"rnicrosoft.com", "microsoft.com"},
		{"vvikipedia.org", "wikipedia.org"},
	}
	for _, c := range cases {
		if Skeleton(c.a) != Skeleton(c.b) {
			t.Errorf("Skeleton(%q) = %q, Skeleton(%q) = %q, want equal", c.a, Skeleton(c.a), c.b, Skeleton(c.b))
		}
	}
}

func TestSkeletonDistinguishes(t *testing.T) {
	cases := []struct{ a, b string }{
		{"facebook.com", "faceboak.com"},
		{"google.com", "goggle.com"},
		{"paypal.com", "paypals.com"},
	}
	for _, c := range cases {
		if Skeleton(c.a) == Skeleton(c.b) {
			t.Errorf("Skeleton(%q) == Skeleton(%q), want distinct", c.a, c.b)
		}
	}
}

func TestSkeletonIdempotent(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		once := Skeleton(s)
		return Skeleton(once) == once
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSkeletonCaseInsensitive(t *testing.T) {
	if Skeleton("FaceBook") != Skeleton("facebook") {
		t.Error("Skeleton is case sensitive")
	}
}

func TestVariantsRoundTrip(t *testing.T) {
	// Every variant of an ASCII letter must fold back to that letter.
	for c := 'a'; c <= 'z'; c++ {
		for _, v := range Variants(c) {
			if Fold(v) != string(c) {
				t.Errorf("Variants(%q) includes %q which folds to %q", c, v, Fold(v))
			}
		}
	}
}

func TestVariantsDeterministic(t *testing.T) {
	a := Variants('a')
	b := Variants('a')
	if len(a) != len(b) {
		t.Fatal("Variants length unstable")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Variants order unstable")
		}
	}
}

func TestVariantCoverageBeatsLegacyTools(t *testing.T) {
	// The paper notes DNSTwist knows only 13 of the lookalikes for 'a'.
	// Our curated table must cover more than that legacy baseline for the
	// hot vowels, and at least a few options for every ASCII letter that
	// real squatters target.
	if n := len(Variants('a')); n <= 13 {
		t.Errorf("len(Variants('a')) = %d, want > 13 (DNSTwist baseline)", n)
	}
	for _, c := range "aeiou" {
		if n := len(Variants(c)); n < 5 {
			t.Errorf("len(Variants(%q)) = %d, want >= 5", c, n)
		}
	}
}

func TestSequenceVariants(t *testing.T) {
	m := SequenceVariants('m')
	found := false
	for _, s := range m {
		if s == "rn" {
			found = true
		}
	}
	if !found {
		t.Errorf("SequenceVariants('m') = %v, want to include \"rn\"", m)
	}
	if len(SequenceVariants('z')) != 0 {
		t.Error("SequenceVariants('z') should be empty")
	}
}

func TestIsConfusable(t *testing.T) {
	if !IsConfusable('а') { // Cyrillic
		t.Error("IsConfusable missed Cyrillic а")
	}
	if IsConfusable('a') { // plain ASCII
		t.Error("IsConfusable flagged plain ASCII a")
	}
	if !IsConfusable('0') {
		t.Error("IsConfusable missed digit 0")
	}
}

func TestSkeletonASCIIOutput(t *testing.T) {
	// Skeletons of domain-ish strings must be pure ASCII so they can be
	// compared against brand domains directly.
	for _, s := range []string{"fàcebook.com", "пример.com", "παράδειγμα.org"} {
		for _, r := range Skeleton(s) {
			if r >= 0x80 {
				// Not all of Unicode is in the curated table; but the
				// curated scripts must fold fully.
				t.Errorf("Skeleton(%q) contains non-ASCII %q", s, r)
			}
		}
	}
}

func BenchmarkSkeleton(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Skeleton("xn--fcebook-8va.com resolved fàcebook.com")
	}
}
