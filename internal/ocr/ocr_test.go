package ocr

import (
	"runtime"
	"strings"
	"testing"

	"squatphi/internal/render"
	"squatphi/internal/simrand"
)

func renderText(text string, scale int) *render.Raster {
	ra := render.NewRaster(render.TextWidth(text, scale)+20, render.GlyphH*scale+10)
	render.DrawText(ra, 4, 4, text, scale)
	return ra
}

func TestRecognizeSimpleText(t *testing.T) {
	var e Engine
	for _, text := range []string{"HELLO", "PAYPAL", "PASSWORD", "LOG IN", "EMAIL OR PHONE", "ACCOUNT 42"} {
		got := e.Recognize(renderText(text, 1))
		if got != text {
			t.Errorf("Recognize(%q) = %q", text, got)
		}
	}
}

func TestRecognizeScale2(t *testing.T) {
	var e Engine
	got := e.Recognize(renderText("WELCOME", 2))
	if got != "WELCOME" {
		t.Errorf("Recognize scale-2 = %q", got)
	}
}

func TestRecognizeLowercaseInputFoldsToUpper(t *testing.T) {
	var e Engine
	got := e.Recognize(renderText("paypal", 1))
	if got != "PAYPAL" {
		t.Errorf("Recognize = %q", got)
	}
}

func TestRecognizeMultiline(t *testing.T) {
	ra := render.NewRaster(300, 60)
	render.DrawText(ra, 4, 4, "FIRST LINE", 1)
	render.DrawText(ra, 4, 4+render.LineH*2, "SECOND", 1)
	var e Engine
	got := e.Recognize(ra)
	lines := strings.Split(got, "\n")
	if len(lines) != 2 || lines[0] != "FIRST LINE" || lines[1] != "SECOND" {
		t.Errorf("Recognize multiline = %q", got)
	}
}

func TestRecognizeInsideBox(t *testing.T) {
	// Text inside an input-box outline: border removal must not destroy it.
	ra := render.NewRaster(200, 30)
	ra.StrokeRect(2, 2, 180, 22, 100)
	render.DrawText(ra, 10, 9, "USERNAME", 1)
	var e Engine
	got := e.Recognize(ra)
	if got != "USERNAME" {
		t.Errorf("Recognize in box = %q", got)
	}
}

func TestRecognizeWithNoise(t *testing.T) {
	// ~1.5% salt-and-pepper noise: the engine should still get most
	// characters; with spell-check the word should be exact.
	rng := simrand.New(21)
	words := []string{"PASSWORD", "FACEBOOK", "SECURITY", "TRANSFER"}
	sc := NewSpellchecker([]string{"password", "facebook", "security", "transfer"})
	var e Engine
	good := 0
	for i, w := range words {
		ra := renderText(w, 1)
		ra.AddNoise(rng.SplitN(uint64(i)), 0.015)
		got := strings.Join(sc.CorrectAll(e.RecognizeWords(ra)), " ")
		if got == strings.ToLower(w) {
			good++
		}
	}
	if good < 3 {
		t.Errorf("only %d/4 noisy words recovered", good)
	}
}

func TestRecognizeWordsLowercases(t *testing.T) {
	var e Engine
	got := e.RecognizeWords(renderText("LOG IN NOW", 1))
	if len(got) != 3 || got[0] != "log" || got[2] != "now" {
		t.Errorf("RecognizeWords = %v", got)
	}
}

func TestRecognizeEmptyRaster(t *testing.T) {
	var e Engine
	if got := e.Recognize(render.NewRaster(100, 50)); got != "" {
		t.Errorf("Recognize(empty) = %q", got)
	}
}

func TestRecognizeFullScreenshot(t *testing.T) {
	html := `<html><head><title>PAYPAL</title></head><body>
		<form>
		<input type="text" placeholder="EMAIL">
		<input type="password" placeholder="PASSWORD">
		<input type="submit" value="LOG IN">
		</form></body></html>`
	ra := render.Screenshot(html, render.Options{})
	var e Engine
	got := strings.ToUpper(e.Recognize(ra))
	for _, want := range []string{"PAYPAL", "EMAIL", "PASSWORD", "LOG IN"} {
		if !strings.Contains(got, want) {
			t.Errorf("screenshot OCR missing %q in %q", want, got)
		}
	}
}

func TestOCRReadsTextHiddenInImages(t *testing.T) {
	// The string-obfuscation evasion: the brand name is nowhere in the
	// HTML, only painted inside an image. OCR must still recover it.
	html := `<html><body><img src="/logo.png"><p>SIGN IN TO CONTINUE</p></body></html>`
	if strings.Contains(strings.ToLower(html), "paypal") {
		t.Fatal("test HTML must not contain the brand")
	}
	ra := render.Screenshot(html, render.Options{Assets: map[string]string{"/logo.png": "PAYPAL"}})
	var e Engine
	got := strings.ToUpper(e.Recognize(ra))
	if !strings.Contains(got, "PAYPAL") {
		t.Errorf("OCR missed image-embedded brand: %q", got)
	}
}

func TestSpellcheckerExactHit(t *testing.T) {
	sc := NewSpellchecker([]string{"password", "email"})
	if sc.Correct("password") != "password" {
		t.Error("exact hit modified")
	}
	if sc.Correct("PASSWORD") != "password" {
		t.Error("case not folded")
	}
}

func TestSpellcheckerEditDistance1(t *testing.T) {
	sc := NewSpellchecker([]string{"password", "email", "login"})
	cases := map[string]string{
		"passwod":  "password", // omission (paper's example)
		"pessword": "password", // substitution
		"emails":   "email",    // insertion
		"lgoin":    "login",    // transposition = 2 edits, len 5 -> unchanged
	}
	for in, want := range cases {
		if in == "lgoin" {
			if got := sc.Correct(in); got != "lgoin" {
				t.Errorf("Correct(%q) = %q, want unchanged", in, got)
			}
			continue
		}
		if got := sc.Correct(in); got != want {
			t.Errorf("Correct(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSpellcheckerDistance2LongWords(t *testing.T) {
	sc := NewSpellchecker([]string{"microsoft"})
	if got := sc.Correct("micrsoft"); got != "microsoft" {
		t.Errorf("Correct = %q", got)
	}
	if got := sc.Correct("mircosfot"); got == "microsoft" {
		// 4 edits away; must NOT correct
		t.Errorf("overeager correction of %q", "mircosfot")
	}
}

func TestSpellcheckerUnknownPassesThrough(t *testing.T) {
	sc := NewSpellchecker([]string{"password"})
	if got := sc.Correct("zzzzz"); got != "zzzzz" {
		t.Errorf("Correct(zzzzz) = %q", got)
	}
}

func TestSpellcheckerPriority(t *testing.T) {
	// "cat" is distance 1 from both "cab" (priority 0) and "car" (1):
	// earlier dictionary word must win.
	sc := NewSpellchecker([]string{"cab", "car"})
	if got := sc.Correct("cat"); got != "cab" {
		t.Errorf("priority tie-break = %q, want cab", got)
	}
}

func TestBoundedEditDistance(t *testing.T) {
	cases := []struct {
		a, b  string
		bound int
		want  int
	}{
		{"abc", "abc", 2, 0},
		{"abc", "abd", 2, 1},
		{"abc", "abcd", 2, 1},
		{"abc", "xyz", 2, -1},
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, -1},
	}
	for _, c := range cases {
		if got := boundedEditDistance(c.a, c.b, c.bound); got != c.want {
			t.Errorf("boundedEditDistance(%q,%q,%d) = %d, want %d", c.a, c.b, c.bound, got, c.want)
		}
	}
}

// loginScreenshot is the page BenchmarkRecognizeScreenshot and the
// allocation budget share: a full 480x800 capture of a login form.
func loginScreenshot() *render.Raster {
	html := `<html><head><title>PAYPAL LOGIN</title></head><body>
		<form><input placeholder="EMAIL"><input type=password placeholder="PASSWORD">
		<input type=submit value="LOG IN"></form></body></html>`
	return render.Screenshot(html, render.Options{})
}

// TestRecognizeAllocBudget bounds the garbage of one Recognize call on a
// full-page capture (make bench-check runs it). The packed engine holds
// the page in four bit planes of 50 KB; the bool-per-pixel engine before
// it allocated 1.55 MB per call.
func TestRecognizeAllocBudget(t *testing.T) {
	const budget = 256 << 10
	const runs = 20
	ra := loginScreenshot()
	var e Engine
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = e.Recognize(ra)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > budget {
		t.Errorf("Recognize allocates %d B per %dx%d page, budget %d", got, ra.W, ra.H, budget)
	}
}

// TestSpellcheckZeroAlloc: a word outside the dictionary scans its length
// buckets without allocating, whether or not a correction is found.
func TestSpellcheckZeroAlloc(t *testing.T) {
	sc := NewSpellchecker([]string{"password", "email", "login", "account", "secure", "verify"})
	for _, w := range []string{"passwod", "zzzzzzzz", "lgoin", "x"} {
		if n := testing.AllocsPerRun(100, func() { _ = sc.Correct(w) }); n != 0 {
			t.Errorf("Correct(%q) allocates %v times per call, want 0", w, n)
		}
	}
}

// TestSpellcheckMatchesLinearScan pins the bucketed lookup to the rule it
// implements: over the whole dictionary in priority order, the nearest
// word within the bound wins and the earlier word wins ties.
func TestSpellcheckMatchesLinearScan(t *testing.T) {
	dict := []string{
		"password", "email", "login", "log", "sign", "account", "username", "cab", "car",
		"verify", "secure", "security", "card", "cart", "care", "suspended", "internationalisation",
	}
	sc := NewSpellchecker(dict)
	linear := func(w string) string {
		maxDist := 1
		if len(w) >= 6 {
			maxDist = 2
		}
		best, bestDist := w, maxDist+1
		for _, cand := range dict {
			if d := editDistance(w, cand); d < bestDist {
				best, bestDist = cand, d
			}
		}
		return best
	}
	rng := simrand.New(7)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0"
	for i := 0; i < 4000; i++ {
		w := []byte(dict[rng.Intn(len(dict))])
		for edits := rng.Intn(4); edits > 0 && len(w) > 0; edits-- {
			at := rng.Intn(len(w))
			switch rng.Intn(3) {
			case 0:
				w[at] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				w = append(w[:at], w[at+1:]...)
			default:
				w = append(w[:at], append([]byte{alphabet[rng.Intn(len(alphabet))]}, w[at:]...)...)
			}
		}
		if got, want := sc.Correct(string(w)), linear(string(w)); got != want {
			t.Fatalf("Correct(%q) = %q, linear scan %q", w, got, want)
		}
	}
}

func BenchmarkRecognizeScreenshot(b *testing.B) {
	ra := loginScreenshot()
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Recognize(ra)
	}
}

func BenchmarkSpellcheck(b *testing.B) {
	sc := NewSpellchecker([]string{"password", "email", "login", "account", "secure", "verify", "facebook", "paypal", "google", "microsoft"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sc.Correct("passwod")
	}
}
