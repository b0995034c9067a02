package domlm

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"squatphi/internal/simrand"
)

// ScoreBytes is Score over raw bytes: labelOf, then scoreLabel in the
// []byte instantiation that ScoreLabelBytes runs. For any input, ScoreBytes(b) == Score(string(b)) bit-for-bit
// (FuzzScoreBytes pins this).
func (m *Model) ScoreBytes(domain []byte, _ *Scratch) float64 {
	return scoreLabel(m, labelOf(domain))
}

var corpus = []string{
	"paypal", "facebook", "google", "microsoft", "amazon", "netflix",
	"dropbox", "linkedin", "spotify", "airbnb", "coinbase", "binance",
	"chase", "wellsfargo", "santander", "rabobank", "alibaba", "tencent",
	"youtube", "whatsapp", "instagram", "telegram", "shopify", "stripe",
}

// permuted returns a deterministic shuffle of names.
func permuted(names []string, seed uint64) []string {
	out := append([]string(nil), names...)
	r := simrand.New(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestTrainInputOrderInvariant(t *testing.T) {
	cfg := Config{Order: 3, AddK: 0.1}
	want := Train(corpus, cfg).Encode()
	for seed := uint64(1); seed <= 8; seed++ {
		got := Train(permuted(corpus, seed), cfg).Encode()
		if !bytes.Equal(want, got) {
			t.Fatalf("model bytes differ after input permutation (seed %d)", seed)
		}
	}
}

func TestTrainWorkerCountInvariant(t *testing.T) {
	cfg := Config{Order: 3, AddK: 0.1}
	want := Train(corpus, cfg).Encode()
	for _, workers := range []int{2, 3, 4, 7, 16, 64} {
		got := TrainParallel(corpus, cfg, workers).Encode()
		if !bytes.Equal(want, got) {
			t.Fatalf("model bytes differ at workers=%d", workers)
		}
	}
}

func TestTrainSetSemantics(t *testing.T) {
	cfg := Config{Order: 3, AddK: 0.1}
	want := Train(corpus, cfg).Encode()
	// Duplicates and case folds are identities over the label set.
	doubled := append(append([]string(nil), corpus...), corpus...)
	if got := Train(doubled, cfg).Encode(); !bytes.Equal(want, got) {
		t.Error("duplicated input changed the model")
	}
	upper := append([]string(nil), corpus...)
	upper[0] = "PayPal"
	upper = append(upper, "GOOGLE")
	if got := Train(upper, cfg).Encode(); !bytes.Equal(want, got) {
		t.Error("case-folded duplicates changed the model")
	}
}

func TestFingerprintSemantics(t *testing.T) {
	cfg := Config{Order: 3, AddK: 0.1}
	base := Train(corpus, cfg)

	if got := Train(permuted(corpus, 3), cfg); got.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint changed under input permutation")
	}
	if got := TrainParallel(corpus, cfg, 5); got.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint changed under parallel training")
	}

	// ... and changes exactly when the model semantics change.
	if got := Train(corpus[:len(corpus)-1], cfg); got.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint unchanged after shrinking the brand set")
	}
	if got := Train(append([]string{"newbrand"}, corpus...), cfg); got.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint unchanged after growing the brand set")
	}
	if got := Train(corpus, Config{Order: 2, AddK: 0.1}); got.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint unchanged after changing the n-gram order")
	}
	if got := Train(corpus, Config{Order: 3, AddK: 0.5}); got.Fingerprint() == base.Fingerprint() {
		t.Error("fingerprint unchanged after changing the smoothing config")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Train(corpus, Config{Order: 3, AddK: 0.1})
	enc := m.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fingerprint() != m.Fingerprint() {
		t.Fatalf("fingerprint changed across encode/decode: %016x vs %016x", dec.Fingerprint(), m.Fingerprint())
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encode of decoded model differs")
	}
	for _, l := range []string{"paypal", "paypa1-login", "xzqwv", "", "a", "facebok"} {
		if a, b := m.ScoreLabel(l), dec.ScoreLabel(l); a != b {
			t.Fatalf("decoded model scores %q as %v, trainer scored %v", l, b, a)
		}
	}

	// The scoring table is not in the file: Decode rebuilds it from the
	// counts. At paper scale, every order, it must come out the same table —
	// the same score bits and the same gate answers over the property corpus.
	for _, p := range universePairs() {
		dec, err := Decode(p.m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		forEachPropertyLabel(propertyCorpusSize()/10, func(_ int, label []byte) {
			checkLabel(t, pair{dec, p.ref}, label, fixedThresholds)
		})
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	m := Train(corpus, Config{Order: 2, AddK: 0.1})
	enc := m.Encode()

	cases := map[string][]byte{
		"empty":     nil,
		"short":     enc[:10],
		"truncated": enc[:len(enc)-3],
		"badMagic":  append([]byte("NOPE!!"), enc[6:]...),
		"badOrder":  append(append([]byte{}, enc[:6]...), append([]byte{9}, enc[7:]...)...),
		"extra":     append(append([]byte{}, enc...), 0xff),
	}
	flipped := append([]byte(nil), enc...)
	flipped[headerSize+12] ^= 0x40 // corrupt a count cell: fingerprint must catch it
	cases["bitflip"] = flipped

	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%s) accepted corrupt input", name)
		}
	}

	if _, err := Decode(enc); err != nil {
		t.Fatalf("Decode rejected pristine input: %v", err)
	}
}

func TestScoreProperties(t *testing.T) {
	m := Train(corpus, DefaultConfig())
	var s Scratch
	inputs := []string{
		"", ".", "...", "paypal.com", "PAYPAL.COM.", "xn--pypal-4ve.com",
		"zzqxwv.net", "a.b.c.d.e", "-", "\xff\xfe", "paypal-login-secure.com",
	}
	for _, in := range inputs {
		got := m.Score(in)
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("Score(%q) = %v, out of [0,1]", in, got)
		}
		if b := m.ScoreBytes([]byte(in), &s); b != got {
			t.Fatalf("ScoreBytes(%q) = %v, Score = %v", in, b, got)
		}
	}
	// Brand vocabulary must score far above random letters.
	brandish := m.ScoreLabel("paypal")
	random := m.ScoreLabel("qzxjwk")
	if brandish <= random {
		t.Fatalf("brand label %v <= random label %v", brandish, random)
	}
}

func TestSampleLabelValid(t *testing.T) {
	m := Train(corpus, DefaultConfig())
	r1 := simrand.New(77).Split("sample")
	r2 := simrand.New(77).Split("sample")
	for i := 0; i < 500; i++ {
		l := m.SampleLabel(r1)
		if l != m.SampleLabel(r2) {
			t.Fatal("sampling is not deterministic for a fixed seed")
		}
		if len(l) < sampleMinLen || len(l) > sampleMaxLen {
			t.Fatalf("sample %q length out of [%d, %d]", l, sampleMinLen, sampleMaxLen)
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			t.Fatalf("sample %q has a leading/trailing hyphen", l)
		}
		for j := 0; j < len(l); j++ {
			c := l[j]
			if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-') {
				t.Fatalf("sample %q contains invalid byte %q", l, c)
			}
		}
	}
}

func TestScoreBytesZeroAlloc(t *testing.T) {
	m := Train(corpus, DefaultConfig())
	var s Scratch
	domains := [][]byte{
		[]byte("cloudshop-media.com"),
		[]byte("qzuvxkwa.net"),
		[]byte("paypa1-secure-login.io"),
		[]byte("data-river.org"),
	}
	// Warm the scratch to steady-state capacity.
	for _, d := range domains {
		m.ScoreBytes(d, &s)
	}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		for _, d := range domains {
			sink += m.ScoreBytes(d, &s)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreBytes allocated %v times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("scores were all zero")
	}
}

// TestConcurrentScoring exercises the shared-model contract under the
// race detector: one model and one gate, many workers, identical scores
// and gate answers everywhere.
func TestConcurrentScoring(t *testing.T) {
	m := Train(corpus, DefaultConfig())
	g := m.Gate(DefaultThreshold)
	inputs := make([]string, 200)
	r := simrand.New(5).Split("conc")
	for i := range inputs {
		inputs[i] = m.SampleLabel(r) + ".com"
	}
	want := make([]float64, len(inputs))
	for i, in := range inputs {
		want[i] = m.Score(in)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			var s Scratch
			for i, in := range inputs {
				if got := m.ScoreBytes([]byte(in), &s); got != want[i] {
					done <- fmt.Errorf("worker scored %q as %v, serial %v", in, got, want[i])
					return
				}
				if label := labelOf([]byte(in)); g.Pass(label) != (want[i] >= DefaultThreshold) {
					done <- fmt.Errorf("worker's gate disagrees with the serial score %v of %q", want[i], in)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkScoreBytes(b *testing.B) {
	m := Train(corpus, DefaultConfig())
	var s Scratch
	d := []byte("cloudshop-media.com")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreBytes(d, &s)
	}
}
