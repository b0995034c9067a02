package imghash

import (
	"testing"
	"testing/quick"

	"squatphi/internal/render"
	"squatphi/internal/simrand"
)

// pageRaster renders a small login-style page, optionally perturbed.
func pageRaster(seed uint64, perturb bool) *render.Raster {
	html := `<html><head><title>Bank Login</title></head><body>
		<h1>Welcome Back</h1>
		<p>Sign in to your account to manage payments and transfers securely</p>
		<form><input type=email placeholder="Email"><input type=password placeholder="Password">
		<input type=submit value="Sign In"></form></body></html>`
	opts := render.Options{}
	if perturb {
		opts.Perturb = simrand.New(seed)
	}
	return render.Screenshot(html, opts)
}

func TestDistanceBasics(t *testing.T) {
	if Distance(0, 0) != 0 {
		t.Fatal("Distance(0,0) != 0")
	}
	if Distance(0, ^Hash(0)) != 64 {
		t.Fatal("Distance(0,~0) != 64")
	}
	if Distance(0b1011, 0b0001) != 2 {
		t.Fatal("Distance(1011,0001) != 2")
	}
}

func TestIdenticalImagesZeroDistance(t *testing.T) {
	a, b := pageRaster(1, false), pageRaster(1, false)
	for name, fn := range map[string]func(*render.Raster) Hash{
		"average": Average, "difference": Difference, "perceptual": Perceptual,
	} {
		if d := Distance(fn(a), fn(b)); d != 0 {
			t.Errorf("%s: identical renders at distance %d", name, d)
		}
	}
}

func TestSmallNoiseSmallDistance(t *testing.T) {
	a, b := pageRaster(1, false), pageRaster(1, false)
	b.AddNoise(simrand.New(3), 0.01)
	// aHash and pHash must be noise-robust. dHash compares near-equal
	// neighbouring cells on a mostly-white page, so sparse noise legally
	// flips many of its bits — only sanity-check it.
	if d := Distance(Average(a), Average(b)); d > 12 {
		t.Errorf("average: 1%% noise moved hash by %d bits", d)
	}
	if d := Distance(Perceptual(a), Perceptual(b)); d > 12 {
		t.Errorf("perceptual: 1%% noise moved hash by %d bits", d)
	}
	if d := Distance(Difference(a), Difference(b)); d > 40 {
		t.Errorf("difference: 1%% noise moved hash by %d bits", d)
	}
}

func TestLayoutObfuscationIncreasesDistance(t *testing.T) {
	// The paper's core observation (Fig. 8/9): layout-obfuscated phishing
	// pages land far from the original, while faithful copies land close.
	orig := pageRaster(0, false)
	copyD := Distance(Perceptual(orig), Perceptual(pageRaster(0, false)))
	obfD := 0
	for seed := uint64(1); seed <= 5; seed++ {
		obfD += Distance(Perceptual(orig), Perceptual(pageRaster(seed, true)))
	}
	obfD /= 5
	if copyD != 0 {
		t.Fatalf("faithful copy at distance %d", copyD)
	}
	if obfD <= 4 {
		t.Fatalf("mean obfuscated distance %d, want > 4", obfD)
	}
}

func TestDifferentPagesDiffer(t *testing.T) {
	a := pageRaster(1, false)
	other := render.Screenshot(`<h1>Totally different page</h1><p>news weather sports and a very long article body goes here</p>`, render.Options{})
	if d := Distance(Perceptual(a), Perceptual(other)); d < 5 {
		t.Fatalf("unrelated pages at perceptual distance %d", d)
	}
}

func TestHashDeterministic(t *testing.T) {
	a := pageRaster(7, true)
	if Average(a) != Average(a) || Difference(a) != Difference(a) || Perceptual(a) != Perceptual(a) {
		t.Fatal("hashing is not deterministic")
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	// Symmetry, identity, triangle inequality on random hash values.
	if err := quick.Check(func(a, b, c uint64) bool {
		ha, hb, hc := Hash(a), Hash(b), Hash(c)
		if Distance(ha, hb) != Distance(hb, ha) {
			return false
		}
		if Distance(ha, ha) != 0 {
			return false
		}
		return Distance(ha, hc) <= Distance(ha, hb)+Distance(hb, hc)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndTinyRasters(t *testing.T) {
	// Degenerate sizes must not panic.
	for _, dims := range [][2]int{{1, 1}, {3, 2}, {8, 8}, {640, 1}} {
		ra := render.NewRaster(dims[0], dims[1])
		_ = Average(ra)
		_ = Difference(ra)
		_ = Perceptual(ra)
	}
}

func TestScaleInvariance(t *testing.T) {
	// pHash of the same content at 2x canvas scale should stay close:
	// downsampling normalises resolution.
	small := render.NewRaster(64, 64)
	render.DrawText(small, 4, 4, "LOGIN", 1)
	small.FillRect(4, 30, 50, 10, 0)
	big := render.NewRaster(128, 128)
	render.DrawText(big, 8, 8, "LOGIN", 2)
	big.FillRect(8, 60, 100, 20, 0)
	if d := Distance(Perceptual(small), Perceptual(big)); d > 16 {
		t.Fatalf("2x scaled content at perceptual distance %d", d)
	}
}

func BenchmarkPerceptual(b *testing.B) {
	ra := pageRaster(1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Perceptual(ra)
	}
}

func BenchmarkAverage(b *testing.B) {
	ra := pageRaster(1, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Average(ra)
	}
}
