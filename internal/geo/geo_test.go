package geo

import (
	"testing"

	"squatphi/internal/dnsx"
	"squatphi/internal/simrand"
)

func TestCountryDeterministic(t *testing.T) {
	ip := [4]byte{93, 184, 216, 34}
	if Country(ip) != Country(ip) {
		t.Fatal("Country not deterministic")
	}
}

func TestPrefixClustering(t *testing.T) {
	// All addresses within a /16 share a country.
	base := [4]byte{52, 31, 0, 0}
	want := Country(base)
	r := simrand.New(5)
	for i := 0; i < 100; i++ {
		ip := base
		ip[2], ip[3] = byte(r.Intn(256)), byte(r.Intn(256))
		if Country(ip) != want {
			t.Fatalf("addresses within /16 map to different countries")
		}
	}
}

func TestDistributionShape(t *testing.T) {
	// US must dominate and DE come second-ish (Figure 15); country spread
	// should be wide.
	r := simrand.New(9)
	hist := map[string]int{}
	for i := 0; i < 30000; i++ {
		hist[Country(dnsx.RandomIP(r))]++
	}
	if hist["US"] < hist["DE"] || hist["DE"] < hist["RU"] {
		t.Fatalf("distribution shape off: US=%d DE=%d RU=%d", hist["US"], hist["DE"], hist["RU"])
	}
	usFrac := float64(hist["US"]) / 30000
	if usFrac < 0.35 || usFrac > 0.60 {
		t.Fatalf("US fraction = %f, want ~0.48", usFrac)
	}
	if len(hist) < 40 {
		t.Fatalf("only %d countries seen, want wide spread", len(hist))
	}
}

func TestHistogram(t *testing.T) {
	ips := [][4]byte{{1, 2, 3, 4}, {1, 2, 9, 9}, {200, 100, 1, 1}}
	h := Histogram(ips)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 3 {
		t.Fatalf("histogram total = %d", total)
	}
	if h[Country([4]byte{1, 2, 3, 4})] < 2 {
		t.Fatal("same-prefix IPs not aggregated")
	}
}

func TestCountries(t *testing.T) {
	if n := len(countryWeights); n != 53 {
		t.Fatalf("%d country codes, want 53 (paper)", n)
	}
}

func BenchmarkCountry(b *testing.B) {
	ip := [4]byte{93, 184, 216, 34}
	for i := 0; i < b.N; i++ {
		_ = Country(ip)
	}
}
