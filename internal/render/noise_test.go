package render

import (
	"bytes"
	"strconv"
	"testing"

	"squatphi/internal/htmlx"
	"squatphi/internal/simrand"
)

// refAddNoise is the per-pixel loop AddNoise replaced: one Float64 draw per
// pixel, and a Bool(0.5) draw for each pixel it flips. AddNoise must leave
// the same pixels and the same generator state.
func refAddNoise(r *Raster, rng *simrand.RNG, p float64) {
	for i := range r.Pix {
		if rng.Float64() < p {
			if rng.Bool(0.5) {
				r.Pix[i] = Ink
			} else {
				r.Pix[i] = Background
			}
		}
	}
}

// randomRaster returns a w x h raster of arbitrary intensities.
func randomRaster(rng *simrand.RNG, w, h int) *Raster {
	ra := NewRaster(w, h)
	for i := range ra.Pix {
		ra.Pix[i] = uint8(rng.Uint64())
	}
	return ra
}

// TestAddNoiseMatchesReference runs AddNoise against refAddNoise on random
// rasters, seeds and levels, and through both of RenderPage's noise
// streams: NoiseSeed on a canonical layout, and the Perturb generator a
// page's layout-seed meta creates, which the layout has already drawn
// from when the noise pass starts.
func TestAddNoiseMatchesReference(t *testing.T) {
	t.Run("rasters", func(t *testing.T) {
		gen := simrand.New(77)
		levels := []float64{-0.1, 0, 1e-6, 0.002, 0.01, 0.03, 0.5, 1, 2}
		for trial := 0; trial < 40; trial++ {
			w, h := 1+gen.Intn(97), 1+gen.Intn(61)
			seed := gen.Uint64()
			for _, p := range levels {
				fast := randomRaster(simrand.New(seed), w, h)
				ref := fast.Clone()
				fr, rr := simrand.New(seed^0xabc), simrand.New(seed^0xabc)
				fast.AddNoise(fr, p)
				refAddNoise(ref, rr, p)
				if !bytes.Equal(fast.Pix, ref.Pix) {
					t.Fatalf("%dx%d seed %d p=%v: AddNoise pixels differ from the reference", w, h, seed, p)
				}
				if fr.Uint64() != rr.Uint64() {
					t.Fatalf("%dx%d seed %d p=%v: generator state differs after AddNoise", w, h, seed, p)
				}
			}
		}
	})
	t.Run("RenderPage", func(t *testing.T) {
		src := `<html><head><title>PayPal Login</title></head><body><h1>Welcome back</h1>
		<img src="/logo.png"><p>Enter your account details below to continue to your dashboard</p>
		<a href="/help">Forgot password?</a>
		<form><input type=email placeholder="Email"><input type=password placeholder="Password">
		<input type=submit value="Log In"></form></body></html>`
		assets := map[string]string{"/logo.png": "PayPal"}
		for _, level := range []float64{0.002, 0.01, 0.03} {
			for seed := uint64(1); seed <= 8; seed++ {
				page := htmlx.Extract(src)
				got := RenderPage(page, Options{Assets: assets, NoiseLevel: level, NoiseSeed: seed})
				want := RenderPage(page, Options{Assets: assets})
				refAddNoise(want, simrand.New(seed|1), level)
				if !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("NoiseSeed %d level %v: render differs from the reference", seed, level)
				}

				page.Meta = map[string]string{"layout-seed": strconv.FormatUint(seed*7919, 10)}
				got = RenderPage(page, Options{Assets: assets, NoiseLevel: level})
				perturb := simrand.New(seed * 7919).Split("page-layout")
				want = RenderPage(page, Options{Assets: assets, Perturb: perturb})
				refAddNoise(want, perturb, level)
				if !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("layout-seed %d level %v: render differs from the reference", seed*7919, level)
				}
			}
		}
	})
}

func TestNewRasterIsBackground(t *testing.T) {
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 2}, {3, 1}, {7, 9}, {33, 65}, {97, 61}, {480, 800}} {
		ra := NewRaster(sz[0], sz[1])
		if ra.W != sz[0] || ra.H != sz[1] || len(ra.Pix) != sz[0]*sz[1] {
			t.Fatalf("NewRaster(%d, %d) = %dx%d with %d pixels", sz[0], sz[1], ra.W, ra.H, len(ra.Pix))
		}
		for i, v := range ra.Pix {
			if v != Background {
				t.Fatalf("NewRaster(%d, %d): pixel %d = %d, want %d", sz[0], sz[1], i, v, Background)
			}
		}
	}
}

// TestAddNoiseZeroAlloc pins the noise pass over a full capture at zero
// allocations: the hit closure must not escape to the heap.
func TestAddNoiseZeroAlloc(t *testing.T) {
	ra := NewRaster(480, 800)
	rng := simrand.New(1)
	if allocs := testing.AllocsPerRun(20, func() { ra.AddNoise(rng, 0.002) }); allocs != 0 {
		t.Fatalf("AddNoise on 480x800 allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkAddNoise(b *testing.B) {
	ra := NewRaster(480, 800)
	rng := simrand.New(1)
	b.SetBytes(int64(len(ra.Pix)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ra.AddNoise(rng, 0.002)
	}
}

// BenchmarkRenderPage renders one login page the way the crawler does: a
// pre-extracted page, its logo asset, and the default capture noise.
func BenchmarkRenderPage(b *testing.B) {
	page := htmlx.Extract(`<html><head><title>PayPal Login</title></head><body><h1>Welcome</h1>
		<img src="/logo.png"><p>Enter your account details below to continue to your dashboard</p>
		<form><input type=email placeholder="Email"><input type=password placeholder="Password">
		<input type=submit value="Log In"></form></body></html>`)
	opts := Options{Assets: map[string]string{"/logo.png": "PayPal"}, NoiseLevel: 0.002, NoiseSeed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = RenderPage(page, opts)
	}
}
