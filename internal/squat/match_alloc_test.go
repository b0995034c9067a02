package squat

import (
	"strings"
	"testing"

	"squatphi/internal/obs"
)

var parityBrands = []Brand{
	NewBrand("paypal.com"),
	NewBrand("facebook.com"),
	NewBrand("google.com"),
	NewBrand("citibank.com"),
	NewBrand("bbc.co.uk"),
	NewBrand("amazon.com"),
	NewBrand("cloud.io"), // skeleton("cloud") = "doud": non-self-skeleton brand
}

func parityMatcher() *Matcher { return NewMatcher(parityBrands) }

// matchParityCorpus hits every branch of classifyBytes: clean fast-path
// labels (miss, exact, wrongTLD, homograph via skeleton-keyed brand, edit
// hits, combo), dirty labels (digits, case, pairs, unicode, ACE),
// multi-label TLDs, subdomains, trailing dots, and degenerate shapes.
var matchParityCorpus = []string{
	// clean misses
	"example.com", "somedomain.net", "deep.sub.domain.org", "bare",
	"shop-fresh.io", "designstudio.dev", "a.b.c.d.e",
	// exact brand / wrongTLD
	"paypal.com", "paypal.net", "paypal.org", "www.paypal.com",
	"bbc.co.uk", "bbc.com", "bbc.org.uk", "facebook.com.br",
	// homograph: skeleton-keyed brand "cloud" -> "doud"
	"cloud.io", "cloud.com", "doud.com", "doud.io", "c1oud.com",
	// edits (typo/bits), both clean and dirty spellings
	"paypol.com", "paypa1.com", "faceb00k.com", "g0ogle.net",
	"paypall.com", "aypal.com", "paypak.com",
	// combo
	"paypal-login.com", "secure-facebook.net", "my-google-docs.org",
	"facebook-paypal.com", "login-amazon.co.uk", "no-brand-here.com",
	// dirty non-hits
	"PayPal.COM", "FACEBOOK.net", "corn.com", "clip.org", "learn.io",
	// IDN / ACE
	"xn--pypal-4ve.com", "xn--fcebook-8va.com", "xn--invalid!!.com",
	"pаypаl.com", "fàcebook.net",
	// degenerate
	"", ".", "..", "...", "a..com", ".com", "com.", "paypal.com.",
	"-", "-.com", "xn--.com", "trailing.dot.", "\xff\xfe.com",
}

// trimExtraDots collapses a run of trailing dots to a single one. The
// reference oracle below re-normalizes internally (SplitETLD lowercases
// and trims one trailing dot), so composing it with the harness's own
// one-dot trim is only faithful when that reaches reference's fixpoint —
// i.e. when the input does not end in "..". Multi-trailing-dot inputs are
// invalid DNS names; the match path keeps the old trim-once behavior for
// them (pinned by the degenerate corpus entries, which all miss).
func trimExtraDots(raw string) string {
	for strings.HasSuffix(raw, "..") {
		raw = raw[:len(raw)-1]
	}
	return raw
}

// TestMatchBytesParity drives MatchString, MatchBytes and Match against
// the reference classify on normalized inputs (normalization happens once
// at scan entry now — the sanctioned behavior change of this refactor).
func TestMatchBytesParity(t *testing.T) {
	m, ref := parityMatcher(), newRefMatcher(parityBrands)
	var s Scratch
	for _, raw := range matchParityCorpus {
		raw := trimExtraDots(raw)
		norm := strings.ToLower(strings.TrimSuffix(raw, "."))
		wantC, wantOK := ref.classify(norm)

		gotC, gotOK := m.MatchString(raw, &s)
		if gotOK != wantOK || gotC != wantC {
			t.Errorf("MatchString(%q) = (%+v, %v), reference (%+v, %v)", raw, gotC, gotOK, wantC, wantOK)
		}
		gotC, gotOK = m.MatchBytes([]byte(raw), &s)
		if gotOK != wantOK || gotC != wantC {
			t.Errorf("MatchBytes(%q) = (%+v, %v), reference (%+v, %v)", raw, gotC, gotOK, wantC, wantOK)
		}
		gotC, gotOK = m.Match(raw)
		if gotOK != wantOK || gotC != wantC {
			t.Errorf("Match(%q) = (%+v, %v), reference (%+v, %v)", raw, gotC, gotOK, wantC, wantOK)
		}
	}
}

// FuzzMatchBytesParity extends the parity check to arbitrary inputs.
func FuzzMatchBytesParity(f *testing.F) {
	for _, s := range matchParityCorpus {
		f.Add(s)
	}
	m, ref := parityMatcher(), newRefMatcher(parityBrands)
	f.Fuzz(func(t *testing.T, raw string) {
		raw = trimExtraDots(raw)
		norm := strings.ToLower(strings.TrimSuffix(raw, "."))
		wantC, wantOK := ref.classify(norm)
		var s Scratch
		gotC, gotOK := m.MatchBytes([]byte(raw), &s)
		if gotOK != wantOK || gotC != wantC {
			t.Fatalf("MatchBytes(%q) = (%+v, %v), reference (%+v, %v)", raw, gotC, gotOK, wantC, wantOK)
		}
	})
}

// missCorpus holds the shapes the 224M-record scan spends its time on:
// domains that match nothing. All of them must classify without a single
// allocation.
var missCorpus = [][]byte{
	[]byte("example.com"),
	[]byte("somedomain.net"),
	[]byte("deep.sub.domain.org"),
	[]byte("shop-fresh-market.io"),     // hyphens: exercises the combo automaton
	[]byte("smartlabs42.co.uk"),        // multi-label eTLD
	[]byte("MiXeD-Case-Domain.COM"),    // ASCII case folding
	[]byte("faceb00k-ish-but-not.xyz"), // fold digits: dirty path + skeleton scratch
	[]byte("trailing.dot."),
}

// TestMatchMissZeroAlloc pins the tentpole contract: the classification
// miss path performs zero allocations per record once scratch buffers
// reach steady state. It is the allocation gate of BenchmarkMatchMiss and
// BenchmarkMatchMissClean; make bench-check runs it.
func TestMatchMissZeroAlloc(t *testing.T) {
	m := parityMatcher()
	var s Scratch
	for _, d := range missCorpus {
		if _, ok := m.MatchBytes(d, &s); ok {
			t.Fatalf("miss corpus entry %q unexpectedly matched", d)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, d := range missCorpus {
			m.MatchBytes(d, &s)
		}
	}); n != 0 {
		t.Errorf("MatchBytes miss path allocated %.1f times per run over %d domains, want 0", n, len(missCorpus))
	}
	if n := testing.AllocsPerRun(200, func() {
		m.MatchString("plain-miss-domain.example.net", &s)
	}); n != 0 {
		t.Errorf("MatchString miss path allocated %.1f times per run, want 0", n)
	}
}

// TestMatchMissZeroAllocInstrumented extends the zero-alloc guarantee to
// the metrics-instrumented matcher: counters and the sampled stopwatch
// must not push allocations onto the miss path either.
func TestMatchMissZeroAllocInstrumented(t *testing.T) {
	m := parityMatcher()
	m.InstrumentMetrics(obs.NewRegistry())
	var s Scratch
	if n := testing.AllocsPerRun(200, func() {
		for _, d := range missCorpus {
			m.MatchBytes(d, &s)
		}
	}); n != 0 {
		t.Errorf("instrumented MatchBytes miss path allocated %.1f times per run, want 0", n)
	}
}

func BenchmarkMatchMiss(b *testing.B) {
	m := parityMatcher()
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBytes(missCorpus[i%len(missCorpus)], &s)
	}
}

// BenchmarkMatchMissClean isolates the dominant shape — a clean ASCII
// label that is its own skeleton — which resolves at the gate.
func BenchmarkMatchMissClean(b *testing.B) {
	m := parityMatcher()
	var s Scratch
	d := []byte("somedomain.net")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBytes(d, &s)
	}
}

func BenchmarkMatchHit(b *testing.B) {
	m := parityMatcher()
	var s Scratch
	d := []byte("paypal-login.com")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBytes(d, &s)
	}
}

// BenchmarkMatchReference measures the pre-optimization string classify
// for the speedup comparison in DESIGN.md §5.
func BenchmarkMatchReference(b *testing.B) {
	ref := newRefMatcher(parityBrands)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.classify("somedomain.net")
	}
}
