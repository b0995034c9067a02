package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"squatphi/internal/brands"
	"squatphi/internal/dnsx"
	"squatphi/internal/domlm"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// smallUniverse keeps the generator tests fast: the always-included core
// brands only, about a seventh of the benchmark's universe.
func smallUniverse() *brands.Universe {
	return brands.Select(brands.Config{PerCategory: 1, PhishTargets: 1, Seed: 2018})
}

// specDigest hashes the record stream a snapshot spec generates.
func specDigest(spec dnsx.SnapshotSpec) string {
	h := sha256.New()
	dnsx.StreamSnapshot(spec, func(domain string, ip [4]byte) bool {
		h.Write([]byte(domain))
		h.Write(ip[:])
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

func TestZoneInputsFollowTheSeed(t *testing.T) {
	sb := smallUniverse().SquatBrands()
	a, b, c := zoneSpec(sb, 2000, 1), zoneSpec(sb, 2000, 1), zoneSpec(sb, 2000, 2)
	if len(a.Planted) == 0 {
		t.Fatal("no squats planted")
	}
	if specDigest(a) != specDigest(b) {
		t.Error("same seed, different zone")
	}
	if specDigest(a) == specDigest(c) {
		t.Error("different seed, same zone")
	}
	if fmt.Sprint(a.Planted) == fmt.Sprint(c.Planted) {
		t.Error("different seed planted the same squats")
	}
}

func TestHardMixFollowsTheSeedAndHoldsEveryClass(t *testing.T) {
	u := smallUniverse()
	model := domlm.Train(u.Names(), domlm.DefaultConfig())
	m := squat.NewMatcher(u.SquatBrands())
	m.AttachLM(model, 0)
	const total = 20_000
	a := hardMixSpec(u, m, model, total, 1)
	if got := len(a.Planted) + a.BrandNoiseRecords + a.NoiseRecords; got != total {
		t.Errorf("mix holds %d records, want %d", got, total)
	}
	if a.BrandNoiseRecords != total*35/1000 || a.BrandNoise != model {
		t.Errorf("near-threshold negatives: %d records, want %d", a.BrandNoiseRecords, total*35/1000)
	}
	idn, matched := 0, len(matching(m, a.Planted))
	for _, d := range a.Planted {
		if len(d) > 4 && d[:4] == "xn--" {
			idn++
		}
	}
	if idn < total*25/1000 {
		t.Errorf("%d xn-- labels, want at least the %d benign ones", idn, total*25/1000)
	}
	if matched < total*75/10000 {
		t.Errorf("only %d planted domains match; the rule-based squats alone are %d", matched, total*75/10000)
	}
	if specDigest(a) != specDigest(hardMixSpec(u, m, model, total, 1)) {
		t.Error("same seed, different mix")
	}
	if specDigest(a) == specDigest(hardMixSpec(u, m, model, total, 2)) {
		t.Error("different seed, same mix")
	}
}

func TestBenignIDNMatchesNothing(t *testing.T) {
	m := squat.NewMatcher(smallUniverse().SquatBrands())
	r := simrand.New(3)
	for i := 0; i < 500; i++ {
		d := benignIDN(r, m)
		if d[:4] != "xn--" {
			t.Fatalf("%q is not an ACE label", d)
		}
		if c, ok := m.MatchBytes([]byte(d), &squat.Scratch{}); ok {
			t.Fatalf("%q matched %v on the byte path", d, c)
		}
	}
}

func TestChurnFollowsTheSeedAndTheEpoch(t *testing.T) {
	domains := []string{"a.com", "b.net", "c.org", "d.io"}
	a := churnEpoch(1, 0, domains, 40)
	if fmt.Sprint(a) != fmt.Sprint(churnEpoch(1, 0, domains, 40)) {
		t.Error("same seed and epoch, different churn")
	}
	if fmt.Sprint(a) == fmt.Sprint(churnEpoch(1, 1, domains, 40)) {
		t.Error("next epoch repeated the churn")
	}
	if fmt.Sprint(a) == fmt.Sprint(churnEpoch(2, 0, domains, 40)) {
		t.Error("different seed, same churn")
	}
	known := map[string]bool{"a.com": true, "b.net": true, "c.org": true, "d.io": true}
	for i, op := range a {
		if (i%2 == 0) != known[op.domain] {
			t.Errorf("op %d touches %q: even ops re-point known domains, odd ops register new ones", i, op.domain)
		}
	}
}

func testMixer() *mixer {
	m := squat.NewMatcher([]squat.Brand{squat.NewBrand("paypal.com"), squat.NewBrand("facebook.com")})
	known := make([]string, 300)
	r := simrand.New(99)
	for i := range known {
		known[i] = r.Letters(8) + ".org"
	}
	return &mixer{
		m: m, known: known, squats: []string{"paypa1.com", "faceb00k.com", "paypal-login.com"},
		zipf: newZipf(len(known), zipfS), matched: map[string]bool{},
	}
}

func scheduleDigest(mx *mixer, seed uint64, n int) (digest string, kinds [3]int) {
	r := simrand.New(seed).Split("open")
	h := sha256.New()
	for i := 0; i < n; i++ {
		q := mx.next(r)
		kinds[q.kind]++
		h.Write([]byte(q.target))
		h.Write(q.body)
		fmt.Fprint(h, q.expect)
	}
	return hex.EncodeToString(h.Sum(nil)), kinds
}

func TestRequestScheduleFollowsTheSeedAndTheMix(t *testing.T) {
	const n = 4000
	a, kinds := scheduleDigest(testMixer(), 1, n)
	if b, _ := scheduleDigest(testMixer(), 1, n); a != b {
		t.Error("same seed, different request schedule")
	}
	if c, _ := scheduleDigest(testMixer(), 2, n); a == c {
		t.Error("different seed, same request schedule")
	}
	for kind, want := range map[int]float64{reqLookup: 0.90, reqBulk: 0.05, reqUpdate: 0.05} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("request kind %d is %.3f of the mix, want about %.2f", kind, got, want)
		}
	}

	mx := testMixer()
	r := simrand.New(5)
	for i := 0; i < 200; i++ {
		q := mx.next(r)
		wantLen := map[uint8]int{reqLookup: 1, reqBulk: serveBulkSize, reqUpdate: serveUpdateSize}[q.kind]
		if len(q.domains) != wantLen || len(q.expect) != wantLen {
			t.Fatalf("kind %d carries %d domains and %d expectations, want %d", q.kind, len(q.domains), len(q.expect), wantLen)
		}
		for j, d := range q.domains {
			if _, ok := mx.m.Match(d); ok != q.expect[j] {
				t.Fatalf("expectation for %q is %v, Matcher.Match says %v", d, q.expect[j], ok)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(1000, zipfS)
	r := simrand.New(1)
	top := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		k := z.draw(r)
		if k < 0 || k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		if k < 10 {
			top++
		}
	}
	// With s = 1.1 the ten hottest of a thousand keys draw about half the
	// traffic.
	if share := float64(top) / n; share < 0.40 || share > 0.65 {
		t.Errorf("top-10 share = %.2f, want about 0.5", share)
	}
}

func TestCheckVerdicts(t *testing.T) {
	body := []byte(`[{"domain":"a.com","known":true,"matched":false,"shard":1},` +
		`{"domain":"paypa1.com","known":true,"matched":true,"type":"homograph","shard":2,"degraded":true}]`)
	if bad, deg := checkVerdicts(body, []bool{false, true}); bad != 0 || deg != 1 {
		t.Errorf("matching reply: bad=%d degraded=%d, want 0 and 1", bad, deg)
	}
	if bad, _ := checkVerdicts(body, []bool{true, true}); bad != 1 {
		t.Errorf("one wrong bit: bad=%d, want 1", bad)
	}
	if bad, _ := checkVerdicts(body, []bool{false, true, false}); bad != 1 {
		t.Errorf("one verdict missing: bad=%d, want 1", bad)
	}
	if bad, _ := checkVerdicts(body, []bool{false}); bad != 1 {
		t.Errorf("one verdict too many: bad=%d, want 1", bad)
	}
}
