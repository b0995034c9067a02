package ocr

import (
	"sort"
	"strings"
	"testing"

	"squatphi/internal/render"
	"squatphi/internal/simrand"
)

// CharErrorRate returns the character error rate of a hypothesis against a
// reference transcript: the Levenshtein distance divided by the reference
// length (the standard OCR accuracy metric; the paper accepts Tesseract on
// the strength of its reported <3% error rate).
// Comparison is case-insensitive with whitespace runs collapsed.
func CharErrorRate(reference, hypothesis string) float64 {
	ref := strings.Join(strings.Fields(strings.ToUpper(reference)), " ")
	hyp := strings.Join(strings.Fields(strings.ToUpper(hypothesis)), " ")
	return errorRate([]byte(ref), []byte(hyp))
}

// WordErrorRate is the word-level analogue.
func WordErrorRate(reference, hypothesis string) float64 {
	return errorRate(strings.Fields(strings.ToUpper(reference)), strings.Fields(strings.ToUpper(hypothesis)))
}

func errorRate[T comparable](ref, hyp []T) float64 {
	if len(ref) == 0 {
		if len(hyp) == 0 {
			return 0
		}
		return 1
	}
	return float64(editDistance(ref, hyp)) / float64(len(ref))
}

// editDistance is the Levenshtein distance between two sequences.
func editDistance[T comparable](a, b []T) int {
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
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func TestCharErrorRateBasics(t *testing.T) {
	cases := []struct {
		ref, hyp string
		want     float64
	}{
		{"PASSWORD", "PASSWORD", 0},
		{"PASSWORD", "PASSWORD ", 0}, // whitespace normalised
		{"PASSWORD", "password", 0},  // case folded
		{"ABCD", "ABXD", 0.25},
		{"ABCD", "", 1},
		{"", "", 0},
		{"", "X", 1},
	}
	for _, c := range cases {
		if got := CharErrorRate(c.ref, c.hyp); got != c.want {
			t.Errorf("CER(%q, %q) = %f, want %f", c.ref, c.hyp, got, c.want)
		}
	}
}

func TestWordErrorRate(t *testing.T) {
	if got := WordErrorRate("log in now", "log on now"); got != 1.0/3 {
		t.Fatalf("WER = %f", got)
	}
	if got := WordErrorRate("a b", "a b"); got != 0 {
		t.Fatalf("identical WER = %f", got)
	}
}

// noiseLines are the text lines the noise-vs-OCR tests render.
var noiseLines = []string{
	"PLEASE ENTER YOUR PASSWORD",
	"WELCOME TO THE PAYMENT CENTER",
	"VERIFY YOUR ACCOUNT DETAILS NOW",
	"SIGN IN WITH EMAIL OR PHONE",
}

// noisyLineCER renders text on a tight canvas, adds noise from seed and
// returns the engine's character error rate on it.
func noisyLineCER(e *Engine, text string, noise float64, seed uint64) float64 {
	ra := render.NewRaster(render.TextWidth(text, 1)+20, render.GlyphH+10)
	render.DrawText(ra, 4, 4, text, 1)
	if noise > 0 {
		ra.AddNoise(simrand.New(seed), noise)
	}
	return CharErrorRate(text, e.Recognize(ra))
}

// TestEngineErrorRateVsNoise sweeps capture noise and checks the engine's
// character error rate stays in a Tesseract-like band: ~0% clean, a few
// percent at realistic noise, degrading gracefully beyond. It draws one
// noise pattern per line; TestEngineErrorRateSweep holds the same bounds
// over 200.
func TestEngineErrorRateVsNoise(t *testing.T) {
	var e Engine
	rates := map[float64]float64{}
	for _, noise := range []float64{0, 0.01, 0.03} {
		totalCER := 0.0
		for i, text := range noiseLines {
			totalCER += noisyLineCER(&e, text, noise, uint64(i+1))
		}
		rates[noise] = totalCER / float64(len(noiseLines))
	}
	if rates[0] != 0 {
		t.Errorf("clean CER = %f, want 0", rates[0])
	}
	if rates[0.01] > 0.05 {
		t.Errorf("CER at 1%% noise = %f, want <= 0.05 (Tesseract-like)", rates[0.01])
	}
	if rates[0.03] > 0.30 {
		t.Errorf("CER at 3%% noise = %f, want graceful degradation", rates[0.03])
	}
	if rates[0.03] < rates[0] {
		t.Error("error rate not monotone in noise")
	}
}

// TestEngineErrorRateSweep renders every line under each of noise seeds
// 1..200 (the draws TestEngineErrorRateVsNoise makes are among them) and
// holds that test's bounds on the sweep mean. The median, p90 and max are
// logged: a single speck on a glyph can derail a whole line, so the tail
// is far worse than the mean even at the crawler's 0.2 %.
func TestEngineErrorRateSweep(t *testing.T) {
	const seeds = 200
	var e Engine
	means := map[float64]float64{}
	for _, noise := range []float64{0.002, 0.01, 0.03} {
		cers := make([]float64, 0, seeds*len(noiseLines))
		sum, worst, worstSeed, worstText := 0.0, -1.0, uint64(0), ""
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, text := range noiseLines {
				c := noisyLineCER(&e, text, noise, seed)
				cers = append(cers, c)
				sum += c
				if c > worst {
					worst, worstSeed, worstText = c, seed, text
				}
			}
		}
		sort.Float64s(cers)
		means[noise] = sum / float64(len(cers))
		t.Logf("noise %.1f%%: mean CER %.4f, median %.4f, p90 %.4f, max %.4f (%q, seed %d) over %d lines",
			noise*100, means[noise], cers[len(cers)/2], cers[len(cers)*9/10], worst, worstText, worstSeed, len(cers))
	}
	if means[0.01] > 0.05 {
		t.Errorf("mean CER at 1%% noise = %f, want <= 0.05 (Tesseract-like)", means[0.01])
	}
	if means[0.03] > 0.30 {
		t.Errorf("mean CER at 3%% noise = %f, want graceful degradation", means[0.03])
	}
	if means[0.002] > means[0.01] || means[0.01] > means[0.03] {
		t.Error("mean error rate not monotone in noise")
	}
}

// TestSpellcheckReducesWER shows the paper's pipeline property: the spell
// checker recovers words the raw engine gets nearly right.
func TestSpellcheckReducesWER(t *testing.T) {
	text := "CONFIRM YOUR PASSWORD TO CONTINUE"
	sc := NewSpellchecker([]string{"confirm", "your", "password", "to", "continue"})
	var e Engine
	var rawWER, fixedWER float64
	const trials = 6
	for i := 0; i < trials; i++ {
		ra := render.NewRaster(render.TextWidth(text, 1)+20, render.GlyphH+10)
		render.DrawText(ra, 4, 4, text, 1)
		ra.AddNoise(simrand.New(uint64(100+i)), 0.02)
		raw := e.Recognize(ra)
		rawWER += WordErrorRate(text, raw)
		fixed := ""
		for _, w := range sc.CorrectAll(e.RecognizeWords(ra)) {
			fixed += w + " "
		}
		fixedWER += WordErrorRate(text, fixed)
	}
	if fixedWER > rawWER {
		t.Errorf("spellcheck raised WER: raw %f fixed %f", rawWER/trials, fixedWER/trials)
	}
}
