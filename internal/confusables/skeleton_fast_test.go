package confusables

import (
	"sort"
	"strings"
	"testing"
)

// skeletonReference is the pre-optimization Skeleton implementation,
// verbatim: per-call builder, per-call key slice and sort, ReplaceAll
// fixpoint. The fast paths (precomputed keys, AppendSkeleton, the
// selfSkeleton shortcut) must agree with it byte for byte.
func skeletonReference(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range strings.ToLower(s) {
		b.WriteString(Fold(r))
	}
	folded := b.String()
	keys := make([]string, 0, len(multiSeq))
	for k := range multiSeq {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for {
		prev := folded
		for _, k := range keys {
			folded = strings.ReplaceAll(folded, k, multiSeq[k])
		}
		if folded == prev {
			return folded
		}
	}
}

// skeletonCorpus mixes the hot-path shapes (plain ASCII labels) with every
// edge the byte path special-cases: folds, pairs, cascades, case, IDN
// text, invalid UTF-8.
var skeletonCorpus = []string{
	"", "paypal", "facebook", "google", "citibank", "amazon",
	"cloud-fresh", "smartlabs", "designstudio",
	"paypa1", "faceb00k", "g0ogle", "c1t1bank", "amaz0n", "5hop", "3xample",
	"rn", "rnn", "rrn", "nnn", "vvv", "clcl", "cl0ud", "learn", "corner",
	"PayPal", "FACEBOOK", "MiXeD-Case",
	"pаypаl", "fàcebook", "зз3", "ыюя", "æœßĳ", "ΑΒΓαβγ",
	"xn--fcebook-8va", "0123456789",
	"a.b.c", "trailing.", "-hyphen-", "\xff\xfe broken \x80utf8",
	"İstanbul", "ǅungla", // special-case Unicode lowering
}

func TestSkeletonMatchesReference(t *testing.T) {
	for _, s := range skeletonCorpus {
		want := skeletonReference(s)
		if got := Skeleton(s); got != want {
			t.Errorf("Skeleton(%q) = %q, reference %q", s, got, want)
		}
		if got := string(AppendSkeleton(nil, []byte(s))); got != want {
			t.Errorf("AppendSkeleton(%q) = %q, reference %q", s, got, want)
		}
		// Appending after existing content must leave the prefix alone.
		buf := AppendSkeleton([]byte("prefix|"), []byte(s))
		if got := string(buf); got != "prefix|"+want {
			t.Errorf("AppendSkeleton with prefix on %q = %q, want %q", s, got, "prefix|"+want)
		}
	}
}

func TestSelfSkeletonASCIIAgreesWithSkeleton(t *testing.T) {
	for _, s := range skeletonCorpus {
		self := selfSkeleton([]byte(s))
		if self && Skeleton(s) != s {
			t.Errorf("selfSkeleton(%q) = true but Skeleton differs: %q", s, Skeleton(s))
		}
		// The predicate must never claim false for a string whose skeleton
		// is itself AND is pure lowercase ASCII without foldables — spot
		// check the known-clean shapes.
	}
	for _, clean := range []string{"", "paypal", "shop-fresh", "qwertyuiop", "a2b4c6"} {
		if !selfSkeleton([]byte(clean)) {
			t.Errorf("selfSkeleton(%q) = false, want true", clean)
		}
	}
	for _, dirty := range []string{"paypa1", "g0ogle", "corn", "clip", "Upper", "pаypаl", "5x", "3x"} {
		if selfSkeleton([]byte(dirty)) {
			t.Errorf("selfSkeleton(%q) = true, want false", dirty)
		}
	}
}

// TestAppendSkeletonZeroAlloc pins the hot-loop contract: folding an ASCII
// label into a reused buffer allocates nothing.
func TestAppendSkeletonZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 64)
	src := []byte("faceb00k-login")
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendSkeleton(buf[:0], src)
	}); n != 0 {
		t.Errorf("AppendSkeleton allocated %.1f times per run, want 0", n)
	}
}

func BenchmarkSkeletonReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		skeletonReference("cloudfresh-market")
	}
}

func BenchmarkSkeletonFast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Skeleton("cloudfresh-market")
	}
}

func BenchmarkAppendSkeleton(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 64)
	src := []byte("cloudfresh-market")
	for i := 0; i < b.N; i++ {
		buf = AppendSkeleton(buf[:0], src)
	}
}

// FuzzSkeletonParity drives the byte fast path against the reference
// implementation on arbitrary input.
func FuzzSkeletonParity(f *testing.F) {
	for _, s := range skeletonCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := skeletonReference(s)
		if got := Skeleton(s); got != want {
			t.Fatalf("Skeleton(%q) = %q, reference %q", s, got, want)
		}
		if got := string(AppendSkeleton(nil, []byte(s))); got != want {
			t.Fatalf("AppendSkeleton(%q) = %q, reference %q", s, got, want)
		}
		if selfSkeleton([]byte(s)) && want != s {
			t.Fatalf("selfSkeleton(%q) = true but skeleton is %q", s, want)
		}
	})
}
