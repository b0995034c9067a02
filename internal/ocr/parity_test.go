package ocr

import (
	"fmt"
	"math/bits"
	"testing"

	"squatphi/internal/render"
	"squatphi/internal/simrand"
)

// sceneRaster paints a seeded page-like scene: text at both scales placed
// anywhere (half off the canvas included) and flush against every edge,
// stroked boxes with and without text inside, long horizontal and vertical
// bars, then salt-and-pepper noise. Any w, h >= 0 is valid.
func sceneRaster(seed uint64, w, h, noisePermille int) *render.Raster {
	ra := render.NewRaster(w, h)
	rng := simrand.New(seed)
	upTo := func(n int) int {
		if n <= 0 {
			return 0
		}
		return rng.Intn(n)
	}
	texts := []string{
		"PAYPAL", "LOG IN", "PASSWORD", "EMAIL OR PHONE", "VERIFY YOUR ACCOUNT",
		"1I!L:;.,'\"", "WWW.BANK-0F.COM/?ID=42&X=%", "(+_=*$@)", "MWNH 8B0O",
	}
	text := func() string { return texts[rng.Intn(len(texts))] }

	for i := upTo(6); i > 0; i-- {
		render.DrawText(ra, upTo(w+24)-12, upTo(h+16)-8, text(), 1+upTo(2))
	}
	if rng.Bool(0.5) { // flush top-left
		render.DrawText(ra, 0, 0, text(), 1+upTo(2))
	}
	if rng.Bool(0.5) { // flush bottom-right
		s, scale := text(), 1+upTo(2)
		render.DrawText(ra, w-render.TextWidth(s, scale)+scale, h-render.GlyphH*scale, s, scale)
	}
	for i := upTo(3); i > 0; i-- {
		x, y := upTo(w+10)-5, upTo(h+10)-5
		bw, bh := 14+upTo(w), 10+upTo(40)
		ra.StrokeRect(x, y, bw, bh, 100)
		if rng.Bool(0.6) {
			render.DrawText(ra, x+4+upTo(4), y+3+upTo(4), text(), 1)
		}
	}
	for i := upTo(3); i > 0; i-- {
		if rng.Bool(0.5) {
			ra.FillRect(upTo(w)-4, upTo(h), 5+upTo(w+8), 1+upTo(3), render.Ink)
		} else {
			ra.FillRect(upTo(w), upTo(h)-4, 1+upTo(3), 5+upTo(h+8), render.Ink)
		}
	}
	if noisePermille > 0 {
		ra.AddNoise(rng.Split("noise"), float64(noisePermille)/1000)
	}
	return ra
}

// parityCase is one scene: the arguments of sceneRaster.
type parityCase struct {
	seed          uint64
	w, h          uint16
	noisePermille uint8
}

func (c parityCase) String() string {
	return fmt.Sprintf("seed%d-%dx%d-noise%d", c.seed, c.w, c.h, c.noisePermille)
}

// parityCases sweeps the sizes where a packed row changes shape (empty,
// narrower than a glyph, one bit short of a word, exactly one, one over,
// two words less a bit, the crawler's 480) against noise from 0 to 5 %.
func parityCases() []parityCase {
	var cases []parityCase
	seed := uint64(1)
	for _, w := range []uint16{0, 1, 4, 63, 64, 65, 127, 128, 200, 480} {
		for _, h := range []uint16{0, 1, 9, 40, 97} {
			for _, noise := range []uint8{0, 10, 30, 50} {
				cases = append(cases, parityCase{seed, w, h, noise})
				seed++
			}
		}
	}
	return cases
}

// sameBitmap fails the test unless the packed image equals the reference
// pixel for pixel and keeps its row padding clear.
func sameBitmap(t *testing.T, stage string, got *bitmap, want *refBitmap) {
	t.Helper()
	if got.w != want.w || got.h != want.h {
		t.Fatalf("%s: packed %dx%d, reference %dx%d", stage, got.w, got.h, want.w, want.h)
	}
	for y := 0; y < got.h; y++ {
		for x := 0; x < got.w; x++ {
			if g := got.span(x, y)&1 == 1; g != want.at(x, y) {
				t.Fatalf("%s: pixel (%d,%d) packed %v, reference %v", stage, x, y, g, want.at(x, y))
			}
		}
		if pad := got.stride*64 - got.w; pad > 0 && got.row(y)[got.stride-1]>>uint(64-pad) != 0 {
			t.Fatalf("%s: row %d has ink in its padding bits", stage, y)
		}
	}
}

// checkParity runs both engines over one raster pass by pass.
func checkParity(t *testing.T, ra *render.Raster) {
	t.Helper()
	got, want := binarize(ra), refBinarize(ra)
	sameBitmap(t, "binarize", got, want)
	denoise(got)
	refDenoise(want)
	sameBitmap(t, "denoise", got, want)
	removeBorders(got)
	refRemoveBorders(want)
	sameBitmap(t, "removeBorders", got, want)

	gotBands, wantBands := findBands(got), refFindBands(want)
	if fmt.Sprint(gotBands) != fmt.Sprint(wantBands) {
		t.Fatalf("findBands: packed %v, reference %v", gotBands, wantBands)
	}
	var e Engine
	if g, w := e.Recognize(ra), recognizeRef(ra); g != w {
		t.Fatalf("Recognize = %q, reference %q", g, w)
	}
}

// TestPassParity pins every pass of the packed engine — binarize, denoise,
// removeBorders, findBands and the recognised text — to the reference.
func TestPassParity(t *testing.T) {
	for _, c := range parityCases() {
		t.Run(c.String(), func(t *testing.T) {
			checkParity(t, sceneRaster(c.seed, int(c.w), int(c.h), int(c.noisePermille)))
		})
	}
}

// TestParityFullPage covers the crawler's raster size, layout perturbation
// and capture noise included.
func TestParityFullPage(t *testing.T) {
	html := `<html><head><title>PAYPAL LOGIN</title></head><body><h1>WELCOME BACK</h1>
		<img src="/logo.png"><p>PLEASE VERIFY YOUR ACCOUNT TO CONTINUE</p>
		<form><input placeholder="EMAIL"><input type=password placeholder="PASSWORD">
		<input type=submit value="LOG IN"></form><a href="/x">FORGOT PASSWORD?</a></body></html>`
	assets := map[string]string{"/logo.png": "PAYPAL"}
	for seed := uint64(1); seed <= 6; seed++ {
		checkParity(t, render.Screenshot(html, render.Options{
			Assets: assets, Perturb: simrand.New(seed), NoiseLevel: 0.004 * float64(seed),
		}))
	}
}

// TestOutOfRangeReads pins the edge semantics the passes rely on: every
// read outside the raster is background, from span and from cell sampling
// at negative and overhanging origins, at widths that do and do not fill
// their last word.
func TestOutOfRangeReads(t *testing.T) {
	for _, w := range []int{1, 5, 63, 64, 65, 130} {
		ra := render.NewRaster(w, 20)
		ra.AddNoise(simrand.New(uint64(w)), 0.9) // mostly random pixels
		got, want := binarize(ra), refBinarize(ra)
		for y := -3; y < got.h+3; y++ {
			for x := -70; x < w+70; x++ {
				v := got.span(x, y)
				for k := 0; k < 64; k++ {
					if g := v>>uint(k)&1 == 1; g != want.at(x+k, y) {
						t.Fatalf("w=%d span(%d,%d) bit %d = %v, reference %v", w, x, y, k, g, want.at(x+k, y))
					}
				}
			}
		}
		for _, scale := range []int{1, 2} {
			for y := -16; y < got.h+2; y++ {
				for x := -12; x < w+2; x++ {
					cell := sampleCell(got, x, y, scale)
					refCell, refInk := refSampleCell(want, x, y, scale)
					if bits.OnesCount64(cell) != refInk {
						t.Fatalf("w=%d scale=%d cell(%d,%d) ink %d, reference %d", w, scale, x, y, bits.OnesCount64(cell), refInk)
					}
					for gy := 0; gy < render.GlyphH; gy++ {
						for gx := 0; gx < render.GlyphW; gx++ {
							if g := cell>>uint(gy*render.GlyphW+gx)&1 == 1; g != refCell[gy][gx] {
								t.Fatalf("w=%d scale=%d cell(%d,%d) bit (%d,%d) = %v, reference %v", w, scale, x, y, gx, gy, g, refCell[gy][gx])
							}
						}
					}
				}
			}
		}
	}
}

// TestTemplateOrder pins the tie-break rule's premise: templates ascend
// by rune and leave out the space.
func TestTemplateOrder(t *testing.T) {
	if len(templates) != len(render.Glyphs())-1 {
		t.Fatalf("%d templates for %d glyphs", len(templates), len(render.Glyphs()))
	}
	for i, tp := range templates {
		if tp.ch == ' ' || i > 0 && templates[i-1].ch >= tp.ch {
			t.Fatalf("template %d (%q) out of order", i, tp.ch)
		}
		if tp.ink != bits.OnesCount64(tp.mask) || tp.ink == 0 {
			t.Fatalf("template %q: ink %d, mask %035b", tp.ch, tp.ink, tp.mask)
		}
	}
}

// TestRecognizeDeterministic: the same pixels always read as the same
// text. Decoration bars and box outlines under noise break into fragments
// that several glyphs match equally well ('T' and 'I', 'M' and 'W', 'O' and
// '9'); the engine this replaced broke those ties by map iteration order,
// and a few scenes in a hundred read differently from call to call.
func TestRecognizeDeterministic(t *testing.T) {
	var e Engine
	for _, noise := range []float64{0.02, 0.05} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := simrand.New(seed)
			ra := render.NewRaster(480, 120)
			for i := 0; i < 4; i++ {
				ra.FillRect(rng.Intn(60), 6+i*28, 200+rng.Intn(200), 5+rng.Intn(4), render.Ink)
			}
			ra.StrokeRect(300, 4, 150, 24, 100)
			ra.StrokeRect(20+rng.Intn(100), 60, 120, 14, 100)
			render.DrawText(ra, 310, 12, "PASSWORD", 1)
			ra.AddNoise(rng.Split("noise"), noise)

			first := e.Recognize(ra)
			for i := 1; i < 20; i++ {
				if got := e.Recognize(ra); got != first {
					t.Fatalf("noise %v seed %d: call %d read %q, call 0 read %q", noise, seed, i, got, first)
				}
			}
		}
	}
}

// TestTieGoesToLowestRune: two upright strokes a glyph apart are 14 of the
// 17 ink cells of both 'H' and 'N'; equal Dice scores go to the lower rune.
func TestTieGoesToLowestRune(t *testing.T) {
	ra := render.NewRaster(20, 16)
	ra.FillRect(4, 4, 1, render.GlyphH, render.Ink)
	ra.FillRect(4+render.GlyphW-1, 4, 1, render.GlyphH, render.Ink)
	b := binarize(ra)
	for i := 0; i < 20; i++ {
		if ch, score := matchCell(b, 4, 4, 1); ch != 'H' || score != 2*14.0/(17+14) {
			t.Fatalf("call %d matched %q at %v, want 'H' at %v", i, ch, score, 2*14.0/(17+14))
		}
	}
}

// FuzzRecognizeParity: for any seeded scene, the packed engine and the
// reference read the same text (and agree after every pass on the way).
// testdata/fuzz/FuzzRecognizeParity holds the seed corpus, one scene per
// row shape; TestPassParity already sweeps the full size and noise grid.
func FuzzRecognizeParity(f *testing.F) {
	f.Add(uint64(1), uint16(480), uint16(120), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, w, h uint16, noisePermille uint8) {
		// Bound the reference's cost, not the shapes: widths past a few
		// words and heights past a few bands add nothing new.
		checkParity(t, sceneRaster(seed, int(w%700), int(h%160), int(noisePermille%51)))
	})
}
