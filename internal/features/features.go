// Package features implements the classifier's feature engineering
// (paper §5.1-5.2): image-based OCR features extracted from page
// screenshots, text-based lexical features from the HTML tags (h*, p, a,
// title), and form-based features (type/name/submit/placeholder attributes
// plus the form count), embedded as keyword-frequency vectors.
//
// All features are brand-independent: the classifier learns what "a
// phishing page" looks like (login prompts, credential forms, urgency
// copy), not what any specific brand's page looks like — the property that
// lets one model scan squatting domains of 702 different brands.
package features

import (
	"strings"

	"squatphi/internal/htmlx"
	"squatphi/internal/ocr"
	"squatphi/internal/render"
	"squatphi/internal/textproc"
)

// Options toggles feature families, for the paper-motivated ablations.
type Options struct {
	// UseOCR enables image-based OCR features (the paper's key novelty).
	UseOCR bool
	// UseLexical enables HTML text features.
	UseLexical bool
	// UseForms enables form-attribute features.
	UseForms bool
	// Spellcheck corrects OCR output against the dictionary.
	Spellcheck bool
	// UseDomLM appends the domain's brand-language-model score
	// (Sample.LMScore) as one extra numeric feature. Off by default so the
	// paper's original 987-dimension embedding — and every golden pinned to
	// it — is unchanged unless the pipeline runs with Config.DomLM.
	UseDomLM bool
}

// AllFeatures enables everything (the paper's full classifier).
func AllFeatures() Options {
	return Options{UseOCR: true, UseLexical: true, UseForms: true, Spellcheck: true}
}

// Extractor turns captured pages into feature vectors. Build it once from
// a training corpus; it is immutable and safe for concurrent use afterwards.
type Extractor struct {
	Opts  Options
	Vocab *textproc.Vocabulary

	engine   ocr.Engine
	speller  *ocr.Spellchecker
	brandSet map[string]bool
}

// dictionary is the spell-check lexicon: high-frequency phishing-page
// vocabulary (the paper corrects OCR output with a spell checker before
// embedding).
var dictionary = []string{
	"password", "email", "login", "log", "sign", "account", "username",
	"phone", "verify", "secure", "security", "submit", "continue",
	"welcome", "enter", "confirm", "update", "credit", "card", "payment",
	"bank", "transfer", "money", "prize", "gift", "claim", "support",
	"help", "service", "billing", "invoice", "payroll", "freight",
	"search", "download", "install", "click", "free", "offer", "limited",
	"access", "restore", "suspended", "unusual", "activity", "customer",
}

// Dictionary returns a copy of the spell-check lexicon.
func Dictionary() []string { return append([]string(nil), dictionary...) }

// NumExtras is the number of numeric features appended to the keyword
// vector: form count, input count, password-input flag, image count,
// script count, link count, and monitored-brand-token count.
//
// The brand-token count is brand-independent in the sense the paper needs:
// it fires when the page shows *any* monitored brand's name (in HTML text
// or, via OCR, in pixels), capturing the impersonation half of "brand
// keywords + credential form" without tying the model to one brand.
const NumExtras = 7

// Sample is one page ready for feature extraction.
type Sample struct {
	HTML string
	Shot *render.Raster
	// LMScore is the brand-language-model score of the page's domain in
	// [0, 1] (core.Pipeline.LMScore). Only embedded when Options.UseDomLM.
	LMScore float64
}

// NewExtractor builds an extractor whose vocabulary merges the frequent
// keywords of the training corpus with the given brand names (the paper's
// 987-dimension embedding).
func NewExtractor(opts Options, corpus []Sample, brandNames []string, minCount int) *Extractor {
	e := newExtractor(opts, brandNames)
	tokenLists := make([][]string, len(corpus))
	for i, s := range corpus {
		tokenLists[i] = e.Tokens(s)
	}
	e.buildVocab(tokenLists, brandNames, minCount)
	return e
}

// Fit is NewExtractor plus the embedding of the corpus itself, reading
// every sample — the OCR of its screenshot above all — once: the token
// lists that build the vocabulary are the ones embedded. The extractor and
// X[i] equal NewExtractor(...) and its Vector(corpus[i]). each must call
// fn(i) for every i in [0, n), concurrently if it likes, and return once
// all calls have.
func Fit(opts Options, corpus []Sample, brandNames []string, minCount int, each func(n int, fn func(i int))) (*Extractor, [][]float64) {
	e := newExtractor(opts, brandNames)
	tokenLists := make([][]string, len(corpus))
	extras := make([][]float64, len(corpus))
	each(len(corpus), func(i int) {
		tokenLists[i], extras[i] = e.read(corpus[i])
	})
	e.buildVocab(tokenLists, brandNames, minCount)
	X := make([][]float64, len(corpus))
	for i := range corpus {
		X[i] = e.Vocab.Embed(tokenLists[i], extras[i])
	}
	return e, X
}

// newExtractor builds an extractor that lacks only its vocabulary.
func newExtractor(opts Options, brandNames []string) *Extractor {
	e := &Extractor{Opts: opts, brandSet: make(map[string]bool, len(brandNames))}
	for _, b := range brandNames {
		e.brandSet[strings.ToLower(b)] = true
	}
	if opts.Spellcheck {
		e.speller = ocr.NewSpellchecker(dictionary)
	}
	return e
}

func (e *Extractor) buildVocab(tokenLists [][]string, brandNames []string, minCount int) {
	if minCount <= 0 {
		minCount = 3
	}
	e.Vocab = textproc.BuildVocabulary(tokenLists, minCount, brandNames)
}

// read parses and recognises one page once and returns both of its
// feature halves, the keyword stream and the numeric extras.
func (e *Extractor) read(s Sample) (tokens []string, extras []float64) {
	page := htmlx.Extract(s.HTML)
	tokens = e.tokensOf(page, s)
	return tokens, e.extrasOf(page, s, tokens)
}

// Tokens extracts the keyword stream of one page under the configured
// feature families.
func (e *Extractor) Tokens(s Sample) []string {
	return e.tokensOf(htmlx.Extract(s.HTML), s)
}

func (e *Extractor) tokensOf(page *htmlx.Page, s Sample) []string {
	var toks []string

	if e.Opts.UseOCR && s.Shot != nil {
		words := e.engine.RecognizeWords(s.Shot)
		if e.speller != nil {
			words = e.speller.CorrectAll(words)
		}
		for _, w := range words {
			for _, t := range textproc.Tokenize(w) {
				toks = append(toks, t)
			}
		}
	}
	if e.Opts.UseLexical {
		var sb strings.Builder
		sb.WriteString(page.Title)
		for _, h := range page.Headings {
			sb.WriteByte(' ')
			sb.WriteString(h)
		}
		for _, p := range page.Paragraphs {
			sb.WriteByte(' ')
			sb.WriteString(p)
		}
		for _, a := range page.LinkTexts {
			sb.WriteByte(' ')
			sb.WriteString(a)
		}
		toks = append(toks, textproc.Tokenize(sb.String())...)
	}
	if e.Opts.UseForms {
		for _, kw := range page.FormKeywords() {
			toks = append(toks, textproc.Tokenize(kw)...)
		}
	}
	return toks
}

// Extras computes the numeric features of one page. tokens is the keyword
// stream of the page (brand-token counting spans both HTML and OCR text).
func (e *Extractor) Extras(s Sample, tokens []string) []float64 {
	return e.extrasOf(htmlx.Extract(s.HTML), s, tokens)
}

func (e *Extractor) extrasOf(page *htmlx.Page, s Sample, tokens []string) []float64 {
	inputs := 0
	for _, f := range page.Forms {
		inputs += len(f.Inputs)
	}
	hasPw := 0.0
	if page.HasPasswordInput() {
		hasPw = 1
	}
	brandTokens := 0
	for _, t := range tokens {
		if e.brandSet[t] {
			brandTokens++
		}
	}
	extras := []float64{
		float64(len(page.Forms)),
		float64(inputs),
		hasPw,
		float64(len(page.Images)),
		float64(len(page.Scripts) + len(page.ScriptSrcs)),
		float64(len(page.LinkHrefs)),
		float64(brandTokens),
	}
	if e.Opts.UseDomLM {
		extras = append(extras, s.LMScore)
	}
	return extras
}

// Vector embeds one page as a feature vector (keyword frequencies plus
// extras). The extractor must have been built with NewExtractor or Fit.
func (e *Extractor) Vector(s Sample) []float64 {
	return e.Vocab.Embed(e.read(s))
}

// Dim returns the feature-vector dimensionality.
func (e *Extractor) Dim() int {
	d := e.Vocab.Size() + NumExtras
	if e.Opts.UseDomLM {
		d++
	}
	return d
}
