package render

import (
	"image"
	"image/png"
	"io"
)

// Image converts the raster to a stdlib grayscale image.
func (r *Raster) Image() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, r.W, r.H))
	copy(img.Pix, r.Pix)
	return img
}

// WritePNG encodes the raster as a PNG, the export used for the paper's
// case-study screenshots (Figure 14).
func (r *Raster) WritePNG(w io.Writer) error {
	return png.Encode(w, r.Image())
}
