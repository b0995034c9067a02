package features

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"squatphi/internal/htmlx"
	"squatphi/internal/render"
)

// extras computes the numeric features of one page the way Vector does.
func (e *Extractor) extras(s Sample, tokens []string) []float64 {
	return e.extrasOf(htmlx.Extract(s.HTML), s, tokens)
}

const phishHTML = `<html><head><title>Log in to your account</title></head><body>
<img src="/logo.png" alt="">
<h1>Your account has been limited</h1>
<p>Please confirm your password to restore full access</p>
<form action="/submit" method="post">
<input type="email" name="user" placeholder="Email or phone">
<input type="password" name="pass" placeholder="Password">
<input type="submit" value="Log In">
</form></body></html>`

const benignHTML = `<html><head><title>Daily gardening tips</title></head><body>
<h1>Your source for gardening ideas</h1>
<p>Read the latest articles curated by our editors every morning</p>
<a href="/archive">Browse the archive</a>
</body></html>`

func sampleOf(html, logoText string) Sample {
	assets := map[string]string{}
	if logoText != "" {
		assets["/logo.png"] = logoText
	}
	return Sample{HTML: html, Shot: render.Screenshot(html, render.Options{Assets: assets})}
}

func trainExtractor(t testing.TB, opts Options) *Extractor {
	t.Helper()
	corpus := []Sample{sampleOf(phishHTML, "Paypal"), sampleOf(benignHTML, "")}
	return NewExtractor(opts, corpus, []string{"paypal", "facebook"}, 1)
}

func TestLexicalTokens(t *testing.T) {
	e := trainExtractor(t, Options{UseLexical: true})
	toks := strings.Join(e.Tokens(sampleOf(phishHTML, "")), " ")
	for _, want := range []string{"limited", "password", "restore", "access"} {
		if !strings.Contains(toks, want) {
			t.Errorf("lexical tokens missing %q: %v", want, toks)
		}
	}
}

func TestFormTokens(t *testing.T) {
	e := trainExtractor(t, Options{UseForms: true})
	toks := strings.Join(e.Tokens(sampleOf(phishHTML, "")), " ")
	for _, want := range []string{"password", "email", "phone", "log"} {
		if !strings.Contains(toks, want) {
			t.Errorf("form tokens missing %q: %v", want, toks)
		}
	}
}

func TestOCRTokensSeeImageOnlyBrand(t *testing.T) {
	// The brand appears only in the logo pixels; OCR features must carry
	// it while lexical features cannot.
	e := trainExtractor(t, Options{UseOCR: true, Spellcheck: true})
	s := sampleOf(phishHTML, "Paypal")
	toks := strings.Join(e.Tokens(s), " ")
	if !strings.Contains(toks, "paypal") {
		t.Errorf("OCR tokens missing image-only brand: %v", toks)
	}
	lex := trainExtractor(t, Options{UseLexical: true, UseForms: true})
	lexToks := strings.Join(lex.Tokens(s), " ")
	if strings.Contains(lexToks, "paypal") {
		t.Errorf("lexical tokens unexpectedly contain the brand: %v", lexToks)
	}
}

func TestExtras(t *testing.T) {
	e := trainExtractor(t, AllFeatures())
	s := sampleOf(phishHTML, "")
	extras := e.extras(s, e.Tokens(s))
	if len(extras) != NumExtras {
		t.Fatalf("extras = %d values", len(extras))
	}
	if extras[0] != 1 { // forms
		t.Errorf("form count = %f", extras[0])
	}
	if extras[1] != 3 { // inputs
		t.Errorf("input count = %f", extras[1])
	}
	if extras[2] != 1 { // has password
		t.Errorf("password flag = %f", extras[2])
	}
	b := sampleOf(benignHTML, "")
	benign := e.extras(b, e.Tokens(b))
	if benign[0] != 0 || benign[2] != 0 {
		t.Errorf("benign extras = %v", benign)
	}
}

func TestBrandTokenExtra(t *testing.T) {
	e := trainExtractor(t, AllFeatures())
	// The phishing sample shows "Paypal" only in the logo image: the
	// brand-token extra (last slot) must fire via the OCR path.
	withLogo := sampleOf(phishHTML, "Paypal")
	extras := e.extras(withLogo, e.Tokens(withLogo))
	if extras[NumExtras-1] < 1 {
		t.Errorf("brand-token count = %f, want >= 1 (brand in logo pixels)", extras[NumExtras-1])
	}
	noBrand := sampleOf(benignHTML, "")
	extras = e.extras(noBrand, e.Tokens(noBrand))
	if extras[NumExtras-1] != 0 {
		t.Errorf("benign brand-token count = %f, want 0", extras[NumExtras-1])
	}
}

func TestVectorShapeAndDeterminism(t *testing.T) {
	e := trainExtractor(t, AllFeatures())
	s := sampleOf(phishHTML, "Paypal")
	v1 := e.Vector(s)
	v2 := e.Vector(s)
	if len(v1) != e.Dim() {
		t.Fatalf("vector dim %d != %d", len(v1), e.Dim())
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("vectors not deterministic")
		}
	}
}

func TestVectorsSeparatePhishFromBenign(t *testing.T) {
	e := trainExtractor(t, AllFeatures())
	vp := e.Vector(sampleOf(phishHTML, "Paypal"))
	vb := e.Vector(sampleOf(benignHTML, ""))
	// The password-keyword dimension must differ.
	idx := slices.Index(e.Vocab.Words(), "password")
	if idx < 0 {
		t.Fatal("password not in vocabulary")
	}
	if vp[idx] <= vb[idx] {
		t.Errorf("password frequency phish=%f benign=%f", vp[idx], vb[idx])
	}
}

func TestBrandNamesAlwaysInVocabulary(t *testing.T) {
	e := trainExtractor(t, AllFeatures())
	if !slices.Contains(e.Vocab.Words(), "facebook") {
		t.Fatal("brand name missing from vocabulary")
	}
}

func TestNilShotSafe(t *testing.T) {
	e := trainExtractor(t, AllFeatures())
	v := e.Vector(Sample{HTML: phishHTML})
	if len(v) != e.Dim() {
		t.Fatal("nil-shot vector wrong dim")
	}
}

// TestFitMatchesNewExtractor: Fit is NewExtractor plus Vector over the
// corpus — same vocabulary, same vectors — whatever runs the per-sample
// pass, and it visits each sample once.
func TestFitMatchesNewExtractor(t *testing.T) {
	corpus := []Sample{
		sampleOf(phishHTML, "Paypal"), sampleOf(benignHTML, ""),
		sampleOf(phishHTML, "Facebook"), {HTML: benignHTML}, sampleOf(benignHTML, "Paypal"),
	}
	corpus[2].LMScore = 0.75
	brands := []string{"paypal", "facebook"}
	for _, opts := range []Options{AllFeatures(), {UseLexical: true}, {UseOCR: true, UseDomLM: true}} {
		want := NewExtractor(opts, corpus, brands, 2)
		var mu sync.Mutex
		visits := make([]int, len(corpus))
		got, X := Fit(opts, corpus, brands, 2, func(n int, fn func(i int)) {
			var wg sync.WaitGroup
			for i := n - 1; i >= 0; i-- { // concurrent and out of order
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					mu.Lock()
					visits[i]++
					mu.Unlock()
					fn(i)
				}(i)
			}
			wg.Wait()
		})
		if !reflect.DeepEqual(got.Vocab.Words(), want.Vocab.Words()) {
			t.Fatalf("%+v: vocabulary %v, NewExtractor built %v", opts, got.Vocab.Words(), want.Vocab.Words())
		}
		for i, s := range corpus {
			if visits[i] != 1 {
				t.Errorf("%+v: sample %d read %d times", opts, i, visits[i])
			}
			if !reflect.DeepEqual(X[i], want.Vector(s)) || !reflect.DeepEqual(X[i], got.Vector(s)) {
				t.Errorf("%+v: X[%d] differs from Vector", opts, i)
			}
		}
	}
}

func BenchmarkVector(b *testing.B) {
	corpus := []Sample{sampleOf(phishHTML, "Paypal"), sampleOf(benignHTML, "")}
	e := NewExtractor(AllFeatures(), corpus, []string{"paypal"}, 1)
	s := sampleOf(phishHTML, "Paypal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Vector(s)
	}
}
