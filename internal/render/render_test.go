package render

import (
	"testing"

	"squatphi/internal/simrand"
)

// Dark reports whether the pixel at (x, y) is closer to ink than background.
func (r *Raster) Dark(x, y int) bool { return r.At(x, y) < 128 }

// Clone returns a deep copy.
func (r *Raster) Clone() *Raster {
	return &Raster{W: r.W, H: r.H, Pix: append([]uint8(nil), r.Pix...)}
}

// InkRatio returns the fraction of dark pixels.
func (r *Raster) InkRatio() float64 {
	if len(r.Pix) == 0 {
		return 0
	}
	dark := 0
	for _, v := range r.Pix {
		if v < 128 {
			dark++
		}
	}
	return float64(dark) / float64(len(r.Pix))
}

func TestRasterBasics(t *testing.T) {
	r := NewRaster(10, 5)
	if r.At(3, 2) != Background {
		t.Fatal("new raster not white")
	}
	r.Set(3, 2, Ink)
	if !r.Dark(3, 2) || r.Dark(4, 2) {
		t.Fatal("Set/Dark broken")
	}
	// Out-of-bounds access must be safe.
	r.Set(-1, -1, Ink)
	r.Set(100, 100, Ink)
	if r.At(-1, 0) != Background || r.At(0, 99) != Background {
		t.Fatal("out-of-bounds At not Background")
	}
}

func TestFillAndStrokeRect(t *testing.T) {
	r := NewRaster(20, 20)
	r.FillRect(5, 5, 4, 4, Ink)
	if !r.Dark(6, 6) || r.Dark(4, 4) {
		t.Fatal("FillRect broken")
	}
	r2 := NewRaster(20, 20)
	r2.StrokeRect(2, 2, 10, 10, Ink)
	if !r2.Dark(2, 2) || !r2.Dark(11, 11) || r2.Dark(5, 5) {
		t.Fatal("StrokeRect broken")
	}
}

func TestClone(t *testing.T) {
	r := NewRaster(4, 4)
	c := r.Clone()
	c.Set(0, 0, Ink)
	if r.Dark(0, 0) {
		t.Fatal("Clone shares pixels")
	}
}

func TestGlyphTableComplete(t *testing.T) {
	// Every letter, digit and listed punctuation must be renderable, and
	// all glyphs must be pairwise distinct so OCR can discriminate them.
	var all []rune
	for c := 'A'; c <= 'Z'; c++ {
		all = append(all, c)
	}
	for c := '0'; c <= '9'; c++ {
		all = append(all, c)
	}
	for _, c := range ".,:;!?@/-_'\"()&+=$*% " {
		all = append(all, c)
	}
	seen := map[Glyph]rune{}
	for _, c := range all {
		g, ok := GlyphFor(c)
		if !ok {
			t.Fatalf("GlyphFor(%q) missing", c)
		}
		if prev, dup := seen[g]; dup {
			t.Fatalf("glyphs %q and %q are identical", prev, c)
		}
		seen[g] = c
	}
}

func TestGlyphForFoldsCase(t *testing.T) {
	lower, ok1 := GlyphFor('a')
	upper, ok2 := GlyphFor('A')
	if !ok1 || !ok2 || lower != upper {
		t.Fatal("lowercase not folded to uppercase glyph")
	}
}

func TestDrawTextAdvance(t *testing.T) {
	r := NewRaster(200, 20)
	end := DrawText(r, 0, 0, "AB", 1)
	if end != 2*AdvanceX {
		t.Fatalf("advance = %d, want %d", end, 2*AdvanceX)
	}
	end = DrawText(r, 0, 10, "AB", 2)
	if end != 4*AdvanceX {
		t.Fatalf("scaled advance = %d", end)
	}
}

func TestDrawTextPaintsInk(t *testing.T) {
	r := NewRaster(100, 20)
	DrawText(r, 0, 0, "HI", 1)
	if r.InkRatio() == 0 {
		t.Fatal("DrawText painted nothing")
	}
	// 'H' leftmost column is full ink.
	for y := 0; y < GlyphH; y++ {
		if !r.Dark(0, y) {
			t.Fatalf("H column missing ink at y=%d", y)
		}
	}
}

func TestScreenshotRendersFormsAndImages(t *testing.T) {
	html := `<html><head><title>Login</title></head><body>
		<h1>Welcome</h1>
		<img src="/logo.png">
		<form><input type="text" name="user" placeholder="Email">
		<input type="password" placeholder="Password">
		<input type="submit" value="Sign In"></form></body></html>`
	ra := Screenshot(html, Options{Assets: map[string]string{"/logo.png": "PayPal"}})
	if ra.InkRatio() < 0.005 {
		t.Fatalf("screenshot nearly empty: ink ratio %f", ra.InkRatio())
	}
}

func TestScreenshotDeterministic(t *testing.T) {
	html := `<h1>Hello</h1><p>World of text</p>`
	a := Screenshot(html, Options{})
	b := Screenshot(html, Options{})
	if a.W != b.W || a.H != b.H {
		t.Fatal("dimensions differ")
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("renders differ across runs")
		}
	}
}

func TestPerturbChangesLayoutNotEmptiness(t *testing.T) {
	html := `<h1>Account Login</h1><p>Please enter your password to continue using the service</p><a href="/h">help</a>`
	plain := Screenshot(html, Options{})
	pert := Screenshot(html, Options{Perturb: simrand.New(9)})
	if pert.InkRatio() == 0 {
		t.Fatal("perturbed render empty")
	}
	diff := 0
	for i := range plain.Pix {
		if plain.Pix[i] != pert.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("perturbation changed nothing")
	}
}

func TestNoiseLevel(t *testing.T) {
	html := `<p>some text</p>`
	clean := Screenshot(html, Options{})
	noisy := Screenshot(html, Options{NoiseLevel: 0.05, Perturb: simrand.New(4)})
	diff := 0
	for i := range clean.Pix {
		if clean.Pix[i] != noisy.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("noise changed nothing")
	}
}

func TestWordWrap(t *testing.T) {
	// A long paragraph must wrap instead of running off the right edge.
	ra := NewRaster(100, 200)
	endY := drawWrapped(ra, 0, 0, "aaaa bbbb cccc dddd eeee ffff", 1, 100)
	if endY <= LineH {
		t.Fatalf("no wrapping occurred: endY = %d", endY)
	}
	// No ink beyond the right edge.
	for y := 0; y < ra.H; y++ {
		for x := 98; x < 100; x++ {
			_ = ra.At(x, y) // bounds safety only
		}
	}
}

func TestHiddenInputsNotRendered(t *testing.T) {
	html := `<form><input type="hidden" name="csrf" value="zz"><input type="submit" value="OK"></form>`
	withHidden := Screenshot(html, Options{})
	html2 := `<form><input type="submit" value="OK"></form>`
	without := Screenshot(html2, Options{})
	d := 0
	for i := range withHidden.Pix {
		if withHidden.Pix[i] != without.Pix[i] {
			d++
		}
	}
	if d != 0 {
		t.Fatal("hidden input affected the raster")
	}
}

func BenchmarkScreenshot(b *testing.B) {
	html := `<html><head><title>PayPal Login</title></head><body><h1>Welcome</h1>
		<p>Enter your account details below to continue to your dashboard</p>
		<form><input type=email placeholder="Email"><input type=password placeholder="Password">
		<input type=submit value="Log In"></form></body></html>`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Screenshot(html, Options{})
	}
}
