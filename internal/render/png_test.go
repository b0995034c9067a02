package render

import (
	"bytes"
	"image"
	"image/png"
	"testing"
)

func TestPNGRoundTrip(t *testing.T) {
	ra := NewRaster(64, 32)
	DrawText(ra, 2, 2, "PNG TEST", 1)
	ra.FillRect(2, 20, 40, 6, 100)

	var buf bytes.Buffer
	if err := ra.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := img.(*image.Gray)
	if !ok {
		t.Fatalf("decoded %T, want *image.Gray", img)
	}
	if b := got.Bounds(); b.Dx() != ra.W || b.Dy() != ra.H {
		t.Fatalf("dims %dx%d != %dx%d", b.Dx(), b.Dy(), ra.W, ra.H)
	}
	for i := range ra.Pix {
		if got.Pix[i] != ra.Pix[i] {
			t.Fatalf("pixel %d: %d != %d", i, got.Pix[i], ra.Pix[i])
		}
	}
}

func TestImageConversion(t *testing.T) {
	ra := NewRaster(4, 4)
	ra.Set(1, 2, 77)
	img := ra.Image()
	if img.GrayAt(1, 2).Y != 77 {
		t.Fatal("Image() lost pixel value")
	}
}
