package textproc

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Please enter your Password, then click LOG-IN!")
	want := []string{"please", "enter", "password", "click", "log"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDropsStopwordsAndShortTokens(t *testing.T) {
	got := Tokenize("a an I to x yz account")
	want := []string{"yz", "account"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDigitsKept(t *testing.T) {
	got := Tokenize("win 500 dollars code ab12")
	want := []string{"win", "500", "dollars", "code", "ab12"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("!!! ... ???"); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v", got)
	}
}

func TestTokenizeNoStopwordsProperty(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		for _, tok := range Tokenize(s) {
			if stopwords[tok] || len(tok) < 2 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildVocabularyOrderAndMinCount(t *testing.T) {
	corpus := [][]string{
		{"password", "login", "password"},
		{"password", "login", "rare"},
	}
	v := BuildVocabulary(corpus, 2, []string{"paypal"})
	// mustInclude first, then by frequency: password(3), login(2); rare(1) dropped.
	want := []string{"paypal", "password", "login"}
	if !reflect.DeepEqual(v.Words(), want) {
		t.Fatalf("Words = %v, want %v", v.Words(), want)
	}
	if _, ok := v.index["rare"]; ok {
		t.Fatal("below-threshold token kept")
	}
}

func TestBuildVocabularyDeduplicates(t *testing.T) {
	v := BuildVocabulary([][]string{{"paypal", "paypal"}}, 1, []string{"PayPal", "paypal"})
	if v.Size() != 1 {
		t.Fatalf("Size = %d, want 1", v.Size())
	}
}

func TestBuildVocabularyDeterministic(t *testing.T) {
	corpus := [][]string{{"aa", "bb", "cc"}, {"bb", "cc", "dd"}, {"cc", "dd", "aa"}}
	a := BuildVocabulary(corpus, 1, nil)
	b := BuildVocabulary(corpus, 1, nil)
	if !reflect.DeepEqual(a.Words(), b.Words()) {
		t.Fatalf("vocabulary order unstable: %v vs %v", a.Words(), b.Words())
	}
}

func TestEmbed(t *testing.T) {
	v := BuildVocabulary([][]string{{"password", "login"}}, 1, nil)
	vec := v.Embed([]string{"password", "password", "unknown"}, []float64{2, 0.5})
	if len(vec) != v.Size()+2 {
		t.Fatalf("vector length = %d", len(vec))
	}
	pi := v.index["password"]
	if vec[pi] != 2 {
		t.Fatalf("password count = %f", vec[pi])
	}
	li := v.index["login"]
	if vec[li] != 0 {
		t.Fatalf("login count = %f", vec[li])
	}
	if vec[v.Size()] != 2 || vec[v.Size()+1] != 0.5 {
		t.Fatalf("extras = %v", vec[v.Size():])
	}
}

func TestEmbedCaseFoldOnIndexOnly(t *testing.T) {
	v := BuildVocabulary(nil, 1, []string{"Brand"})
	if i, ok := v.index["brand"]; !ok || i != 0 {
		t.Fatal("mustInclude word not folded to lower case")
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := "Please enter your email address and password to sign in to your PayPal account securely 2018"
	for i := 0; i < b.N; i++ {
		_ = Tokenize(s)
	}
}

func BenchmarkEmbed(b *testing.B) {
	var corpus [][]string
	for i := 0; i < 50; i++ {
		corpus = append(corpus, Tokenize("password login account secure verify email bank transfer money"))
	}
	v := BuildVocabulary(corpus, 1, []string{"paypal", "facebook", "google"})
	toks := Tokenize("enter password to login to your paypal account")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Embed(toks, []float64{1})
	}
}
