// Package textproc implements the NLP substrate of the classifier pipeline:
// tokenization, stopword removal, vocabulary construction, and sparse
// keyword-frequency feature embedding (paper §5.2).
//
// The paper tokenizes extracted text with NLTK, removes stopwords, applies
// spell checking (see internal/ocr), and embeds pages as keyword-frequency
// vectors over the union of frequent ground-truth keywords and brand names
// (987 dimensions in their data). This package reproduces that embedding.
package textproc

import (
	"sort"
	"strings"
	"unicode"
)

// stopwords is a standard English stopword list (short function words that
// carry no phishing signal).
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
		a an and are as at be by for from has have he her his i in is it its
		of on or that the their them they this to was were will with you your
		we our us she him hers ours yours theirs me my mine do does did done
		not no nor so if then else when where which who whom what why how all
		any both each few more most other some such than too very can just
		also am been being but had having into itself once only own same
		there these those through under until up down out off over again
		further about above below after before between during`) {
		stopwords[w] = true
	}
}

// Tokenize splits free text into lower-cased word tokens: runs of letters
// and digits, dropping single characters and stopwords.
func Tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= 2 {
			w := cur.String()
			if !stopwords[w] {
				out = append(out, w)
			}
		}
		cur.Reset()
	}
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Vocabulary maps keywords to feature-vector indices. It is immutable once
// built and safe for concurrent use.
type Vocabulary struct {
	index map[string]int
	words []string
}

// BuildVocabulary constructs a vocabulary from token frequency counts:
// tokens appearing at least minCount times across the corpus, merged with
// the mustInclude list (the paper merges frequent phishing keywords with
// all brand names). Order is deterministic: mustInclude first, then corpus
// tokens by descending frequency (ties alphabetical).
func BuildVocabulary(corpus [][]string, minCount int, mustInclude []string) *Vocabulary {
	freq := map[string]int{}
	for _, doc := range corpus {
		for _, tok := range doc {
			freq[tok]++
		}
	}
	v := &Vocabulary{index: map[string]int{}}
	add := func(w string) {
		if w == "" {
			return
		}
		if _, ok := v.index[w]; !ok {
			v.index[w] = len(v.words)
			v.words = append(v.words, w)
		}
	}
	for _, w := range mustInclude {
		add(strings.ToLower(w))
	}
	type wc struct {
		w string
		c int
	}
	var sorted []wc
	for w, c := range freq {
		if c >= minCount {
			sorted = append(sorted, wc{w, c})
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].c != sorted[j].c {
			return sorted[i].c > sorted[j].c
		}
		return sorted[i].w < sorted[j].w
	})
	for _, e := range sorted {
		add(e.w)
	}
	return v
}

// Size returns the number of keyword dimensions.
func (v *Vocabulary) Size() int { return len(v.words) }

// Words returns the keywords in index order. Callers must not modify it.
func (v *Vocabulary) Words() []string { return v.words }

// Embed converts token lists plus numeric extras into a dense feature
// vector: keyword frequencies first, then the extras appended. The layout
// matches the paper's embedding (keyword counts + numeric features such as
// the number of forms).
func (v *Vocabulary) Embed(tokens []string, extras []float64) []float64 {
	vec := make([]float64, len(v.words)+len(extras))
	for _, tok := range tokens {
		if i, ok := v.index[tok]; ok {
			vec[i]++
		}
	}
	copy(vec[len(v.words):], extras)
	return vec
}
