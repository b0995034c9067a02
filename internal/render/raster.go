// Package render implements the screenshot substrate: a bitmap font and an
// HTML-subset layout engine that rasterises pages into grayscale images.
//
// The paper drives headless Chrome to screenshot 1.3M pages and extracts
// classifier features from the pixels via OCR, because attackers hide brand
// keywords from the HTML while still displaying them to users (paper §4.2,
// §5.1). This package reproduces that pipeline's essential property: text
// that a page removes from its HTML and paints into images is genuinely
// absent from the markup and present only in the raster, so only the OCR
// path can recover it.
package render

import "squatphi/internal/simrand"

// Pixel intensity conventions: 0 is black ink, 255 is white background.
const (
	Ink        = 0
	Background = 255
)

// Raster is an 8-bit grayscale image.
type Raster struct {
	W, H int
	Pix  []uint8 // row-major, len W*H
}

// NewRaster allocates a white raster. The fill doubles a filled prefix
// with copy, so it runs as a handful of memmoves, not a byte loop.
func NewRaster(w, h int) *Raster {
	pix := make([]uint8, w*h)
	if len(pix) > 0 {
		pix[0] = Background
		for n := 1; n < len(pix); n *= 2 {
			copy(pix[n:], pix[:n])
		}
	}
	return &Raster{W: w, H: h, Pix: pix}
}

// At returns the pixel at (x, y); out-of-bounds reads return Background.
func (r *Raster) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= r.W || y >= r.H {
		return Background
	}
	return r.Pix[y*r.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (r *Raster) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= r.W || y >= r.H {
		return
	}
	r.Pix[y*r.W+x] = v
}

// FillRect paints a solid rectangle.
func (r *Raster) FillRect(x, y, w, h int, v uint8) {
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			r.Set(xx, yy, v)
		}
	}
}

// StrokeRect paints a 1-pixel rectangle outline.
func (r *Raster) StrokeRect(x, y, w, h int, v uint8) {
	for xx := x; xx < x+w; xx++ {
		r.Set(xx, y, v)
		r.Set(xx, y+h-1, v)
	}
	for yy := y; yy < y+h; yy++ {
		r.Set(x, yy, v)
		r.Set(x+w-1, yy, v)
	}
}

// AddNoise flips each pixel to a random intensity with probability p,
// reproducing sensor/compression noise so the OCR engine's error rate is
// non-zero, like Tesseract's ~3% (paper §5.1).
//
// The stream is exact: rng makes one Float64 draw per pixel, in order, and
// one Bool(0.5) draw for each pixel it flips, so the pixels and rng's final
// state are those of that per-pixel loop (refAddNoise in the tests). The
// loop is rng.Sparse: about one SplitMix64 mix and an integer compare per
// pixel, with no allocation.
func (r *Raster) AddNoise(rng *simrand.RNG, p float64) {
	pix := r.Pix
	rng.Sparse(len(pix), p, func(i int) {
		if rng.Bool(0.5) {
			pix[i] = Ink
		} else {
			pix[i] = Background
		}
	})
}
