package squat

import (
	"strings"
	"testing"

	"squatphi/internal/domlm"
	"squatphi/internal/obs"
	"squatphi/internal/simrand"
)

// lmNames is the brand vocabulary the test model trains over: the parity
// matcher's brands plus enough of the wider universe for the model to
// generalize (a 7-name model can only reproduce its inputs verbatim).
var lmNames = []string{
	"paypal", "facebook", "google", "citibank", "bbc", "amazon", "cloud",
	"netflix", "microsoft", "dropbox", "linkedin", "spotify", "airbnb",
	"coinbase", "binance", "wellsfargo", "santander", "alibaba", "tencent",
	"youtube", "whatsapp", "instagram", "telegram", "shopify", "stripe",
}

// lmModel trains a brand-language model the way core.New does when DomLM
// is enabled: default config over the brand-name vocabulary.
func lmModel() *domlm.Model {
	return domlm.Train(lmNames, domlm.DefaultConfig())
}

// generatedProbe rejection-samples the model for a label that the five
// rule-based types all miss but the model scores at or above thr — the
// shape the webworld generated-squat scenario plants.
func generatedProbe(t *testing.T, m *Matcher, model *domlm.Model, thr float64) string {
	t.Helper()
	r := simrand.New(1234).Split("probe")
	base := NewMatcher(m.Brands()) // same rules, no LM attached
	isBrand := map[string]bool{}
	for _, b := range m.Brands() {
		isBrand[b.Name] = true
	}
	for i := 0; i < 5000; i++ {
		label := model.SampleLabel(r)
		if len(label) < domlm.MinLabelLen || model.ScoreLabel(label) < thr {
			continue
		}
		if isBrand[label] {
			continue // sampled a brand name verbatim: that's the original site
		}
		d := label + ".com"
		if _, ok := base.Match(d); ok {
			continue
		}
		return d
	}
	t.Fatal("no generated probe found in 5000 samples")
	return ""
}

func TestAttachLMFingerprint(t *testing.T) {
	model := lmModel()
	base := parityMatcher().Fingerprint()

	m1 := parityMatcher()
	m1.AttachLM(model, 0)
	if m1.Fingerprint() == base {
		t.Error("attaching a model did not change the matcher fingerprint")
	}
	m2 := parityMatcher()
	m2.AttachLM(model, 0)
	if m2.Fingerprint() != m1.Fingerprint() {
		t.Error("same model + threshold produced different fingerprints")
	}
	m3 := parityMatcher()
	m3.AttachLM(model, 0.95)
	if m3.Fingerprint() == m1.Fingerprint() {
		t.Error("changing the threshold did not change the fingerprint")
	}
	retrained := domlm.Train([]string{"paypal", "facebook"}, domlm.DefaultConfig())
	m4 := parityMatcher()
	m4.AttachLM(retrained, 0)
	if m4.Fingerprint() == m1.Fingerprint() {
		t.Error("retraining the model did not change the fingerprint")
	}

	// The fingerprint is a function of what is attached, not of the calls
	// that got there: deltascan state written without the model must not
	// read as valid because the model was attached an even number of times.
	m1.AttachLM(model, 0)
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Error("attaching the same model twice changed the fingerprint (it toggled back to no-LM before the fix)")
	}
	m3.AttachLM(retrained, 0)
	if m3.Fingerprint() != m4.Fingerprint() {
		t.Error("attach A then B differs from a fresh matcher with B attached")
	}

	// Detaching restores the fresh matcher: its fingerprint, and its verdict
	// on a label only the model flags.
	d := generatedProbe(t, m2, model, domlm.DefaultThreshold)
	if c, ok := m2.Match(d); !ok || c.Type != Generated {
		t.Fatalf("Match(%q) = (%+v, %v) with the model attached, want a Generated hit", d, c, ok)
	}
	m2.AttachLM(nil, 0.5)
	if m2.Fingerprint() != base {
		t.Errorf("attach then detach: fingerprint %#x, want the fresh matcher's %#x", m2.Fingerprint(), base)
	}
	if c, ok := m2.Match(d); ok {
		t.Errorf("detached matcher matched %q as %+v, want the rule-based miss", d, c)
	}
}

func TestMatchGenerated(t *testing.T) {
	model := lmModel()
	m := parityMatcher()
	m.AttachLM(model, 0)
	reg := obs.NewRegistry()
	m.InstrumentMetrics(reg)

	d := generatedProbe(t, m, model, domlm.DefaultThreshold)
	c, ok := m.Match(d)
	if !ok || c.Type != Generated {
		t.Fatalf("Match(%q) = (%+v, %v), want a Generated hit", d, c, ok)
	}
	if c.Brand.Name != "" {
		t.Errorf("Generated hit carries brand attribution %q, want none", c.Brand.Name)
	}
	var s Scratch
	if cb, okb := m.MatchBytes([]byte(d), &s); okb != ok || cb != c {
		t.Errorf("MatchBytes(%q) = (%+v, %v), MatchString gave (%+v, %v)", d, cb, okb, c, ok)
	}
	if got := reg.Snapshot().Counters["squat.match.candidates.generated"]; got == 0 {
		t.Error("generated hits were not counted under squat.match.candidates.generated")
	}

	// The five rule-based types keep precedence over the LM: a typo of an
	// indexed brand classifies as Typo even with a model attached.
	if c, ok := m.Match("paypol.com"); !ok || c.Type != Typo {
		t.Errorf("Match(paypol.com) = (%+v, %v), want a Typo hit", c, ok)
	}
	// Ordinary registrations stay misses.
	for _, d := range []string{"example.com", "shop-fresh-market.io", "smartlabs42.co.uk"} {
		if c, ok := m.Match(d); ok {
			t.Errorf("Match(%q) = %+v, want a miss with the LM attached", d, c)
		}
	}
	// Labels below MinLabelLen never promote, whatever they score.
	if c, ok := m.Match("payp.net"); ok {
		t.Errorf("Match(payp.net) = %+v, want a miss (below MinLabelLen)", c)
	}
}

func TestExplainGenerated(t *testing.T) {
	model := lmModel()
	m := parityMatcher()
	m.AttachLM(model, 0)

	d := generatedProbe(t, m, model, domlm.DefaultThreshold)
	ex := m.Explain(d)
	if !ex.Matched || ex.Type != Generated || ex.Rule != RuleGenerated {
		t.Fatalf("Explain(%q) = %+v, want a %s match", d, ex, RuleGenerated)
	}
	if ex.LMScore < domlm.DefaultThreshold {
		t.Errorf("Explain(%q).LMScore = %v, below the promotion threshold", d, ex.LMScore)
	}
	if len(ex.LMModel) != 16 {
		t.Errorf("Explain(%q).LMModel = %q, want 16 hex digits", d, ex.LMModel)
	}
	if ex.EditDistance != -1 || ex.BrandSkeleton != "" {
		t.Errorf("Explain(%q) carries brand-relative evidence %+v, want none", d, ex)
	}
	ev := ex.Evidence()
	if ev.Rule != RuleGenerated || ev.LMScore != ex.LMScore || ev.LMModel != ex.LMModel || ev.Brand != "" {
		t.Errorf("Evidence() = %+v, does not mirror the explanation", ev)
	}

	// Misses expose the score too, so analysts can see the margin.
	exMiss := m.Explain("example.com")
	if exMiss.Matched || exMiss.LMModel == "" {
		t.Errorf("Explain(example.com) = %+v, want an unmatched explanation with LM evidence", exMiss)
	}
	if !strings.HasPrefix(RuleGenerated, Generated.String()) {
		t.Errorf("rule name %q does not carry the type name %q", RuleGenerated, Generated.String())
	}
}

// TestMatchMissZeroAllocLM extends the zero-allocation miss-path contract
// to a matcher with a language model attached: every miss now pays one
// ScoreLabelBytes call, which must stay allocation-free.
func TestMatchMissZeroAllocLM(t *testing.T) {
	m := parityMatcher()
	m.AttachLM(lmModel(), 0)
	var s Scratch
	for _, d := range missCorpus {
		if c, ok := m.MatchBytes(d, &s); ok {
			t.Fatalf("miss corpus entry %q matched %+v with the LM attached", d, c)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, d := range missCorpus {
			m.MatchBytes(d, &s)
		}
	}); n != 0 {
		t.Errorf("LM-attached MatchBytes miss path allocated %.1f times per run, want 0", n)
	}
}

// aceMissCorpus holds benign xn-- records: labels that decode (to Latin
// with a diacritic, to CJK, under a two-label suffix) or fail to, and
// match no brand either way.
var aceMissCorpus = [][]byte{
	[]byte("xn--bcher-kva.com"),
	[]byte("xn--fiq228c.com"),
	[]byte("www.xn--mnchen-3ya.co.uk"),
	[]byte("xn--invalid!!.net"),
}

// TestMatchMissZeroAllocACE extends the contract to the IDN path, which
// used to decode and re-split through strings (~11 allocations a record):
// a benign xn-- record costs none, model attached.
func TestMatchMissZeroAllocACE(t *testing.T) {
	m := parityMatcher()
	m.AttachLM(lmModel(), 0)
	var s Scratch
	for _, d := range aceMissCorpus {
		if c, ok := m.MatchBytes(d, &s); ok {
			t.Fatalf("ACE miss corpus entry %q matched %+v", d, c)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, d := range aceMissCorpus {
			m.MatchBytes(d, &s)
		}
	}); n != 0 {
		t.Errorf("MatchBytes allocated %.1f times per run over %d benign xn-- records, want 0", n, len(aceMissCorpus))
	}
}

// BenchmarkMatchMissACE measures the benign-IDN miss;
// TestMatchMissZeroAllocACE is its allocation gate.
func BenchmarkMatchMissACE(b *testing.B) {
	m := parityMatcher()
	m.AttachLM(lmModel(), 0)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBytes(aceMissCorpus[i%len(aceMissCorpus)], &s)
	}
}

// BenchmarkMatchMissLM measures the miss path with the LM attached — the
// per-record cost of generated-squat detection at scan scale.
// TestMatchMissZeroAllocLM is its allocation gate.
func BenchmarkMatchMissLM(b *testing.B) {
	m := parityMatcher()
	m.AttachLM(lmModel(), 0)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchBytes(missCorpus[i%len(missCorpus)], &s)
	}
}
