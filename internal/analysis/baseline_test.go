package analysis

import (
	"strings"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "metricname", Path: "a/b.go", Line: 1, Col: 1, Message: "non-literal name"},
		{Analyzer: "metricname", Path: "a/b.go", Line: 9, Col: 4, Message: "non-literal name"},
		{Analyzer: "transport", Path: "c/d.go", Line: 2, Col: 2, Message: "raw dial"},
	}
	var buf strings.Builder
	if err := WriteBaseline(&buf, diags); err != nil {
		t.Fatal(err)
	}
	b, err := ParseBaseline(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse written baseline: %v\n%s", err, buf.String())
	}
	fresh, stale := b.Filter(diags, nil)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("round trip: fresh=%v stale=%v, want none", fresh, stale)
	}
}

func TestBaselineFilterCountsAndStale(t *testing.T) {
	src := "# justified because reasons\n" +
		"2\tmetricname\ta/b.go\tnon-literal name\n" +
		"1\ttransport\tc/d.go\traw dial\n"
	b, err := ParseBaseline(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		{Analyzer: "metricname", Path: "a/b.go", Line: 1, Message: "non-literal name"},
		{Analyzer: "metricname", Path: "a/b.go", Line: 5, Message: "non-literal name"},
		{Analyzer: "metricname", Path: "a/b.go", Line: 9, Message: "non-literal name"}, // exceeds count
		{Analyzer: "determinism", Path: "e/f.go", Line: 3, Message: "clock read"},      // not baselined
	}
	fresh, stale := b.Filter(diags, nil)
	if len(fresh) != 2 {
		t.Fatalf("fresh = %v, want the over-count metricname and the determinism finding", fresh)
	}
	if fresh[0].Analyzer != "metricname" || fresh[0].Line != 9 {
		t.Errorf("first fresh = %+v, want the third metricname at line 9", fresh[0])
	}
	if fresh[1].Analyzer != "determinism" {
		t.Errorf("second fresh = %+v, want the determinism finding", fresh[1])
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "transport") {
		t.Errorf("stale = %v, want the unmatched transport entry", stale)
	}
}

func TestBaselineFilterScoped(t *testing.T) {
	src := "1\tmetricname\ta/b.go\tnon-literal name\n" +
		"1\ttransport\tc/d.go\traw dial\n"
	b, err := ParseBaseline(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Only directory "a" was analyzed: the unmatched a/b.go entry is
	// stale, but the c/d.go entry is out of scope and must be silent.
	fresh, stale := b.Filter(nil, func(analyzer, path string) bool {
		return strings.HasPrefix(path, "a/")
	})
	if len(fresh) != 0 {
		t.Fatalf("fresh = %v, want none", fresh)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "a/b.go") {
		t.Fatalf("stale = %v, want only the in-scope a/b.go entry", stale)
	}
	// Only the transport analyzer ran: the metricname entry must be
	// silent even though its directory was analyzed.
	_, stale = b.Filter(nil, func(analyzer, path string) bool {
		return analyzer == "transport"
	})
	if len(stale) != 1 || !strings.Contains(stale[0], "c/d.go") {
		t.Fatalf("stale = %v, want only the transport c/d.go entry", stale)
	}
}

func TestBaselineParseErrors(t *testing.T) {
	for _, src := range []string{
		"not-a-count\tmetricname\ta.go\tmsg\n",
		"0\tmetricname\ta.go\tmsg\n",
		"1\tmetricname\tmissing-message\n",
	} {
		if _, err := ParseBaseline(strings.NewReader(src)); err == nil {
			t.Errorf("ParseBaseline(%q) should fail", src)
		}
	}
}

func TestLoadBaselineFileMissing(t *testing.T) {
	b, err := LoadBaselineFile("testdata/does-not-exist.baseline")
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := b.Filter([]Diagnostic{{Analyzer: "x", Path: "y.go", Message: "m"}}, nil)
	if len(fresh) != 1 || len(stale) != 0 {
		t.Fatalf("empty baseline: fresh=%v stale=%v", fresh, stale)
	}
}
