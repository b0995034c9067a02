package htmlx

import (
	"strings"
	"testing"

	"squatphi/internal/simrand"
)

// Find returns all descendant elements with the given tag.
func (n *Node) Find(tag string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

const samplePage = `<!doctype html>
<html>
<head><title>PayPal &mdash; Log In</title>
<meta http-equiv="refresh" content="5; url=https://market.example/park">
<script src="/static/app.js"></script>
<script>var x = eval("1+1");</script>
</head>
<body>
<h1>Welcome to PayPal</h1>
<p>Enter your credentials to continue. &amp; stay safe</p>
<a href="/help">Need help?</a>
<form action="/login" method="post">
  <input type="email" name="user" placeholder="Email or phone">
  <input type='password' name=pass placeholder="Password">
  <button type="submit">Log In</button>
</form>
<img src="/logo.png" alt="paypal logo">
</body>
</html>`

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize(`<p class="x">hi</p>`)
	if len(toks) != 3 {
		t.Fatalf("tokens = %d, want 3", len(toks))
	}
	if toks[0].Type != StartTagToken || toks[0].Data != "p" || toks[0].Attrs[0] != (Attr{"class", "x"}) {
		t.Fatalf("start tag = %+v", toks[0])
	}
	if toks[1].Type != TextToken || toks[1].Data != "hi" {
		t.Fatalf("text = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "p" {
		t.Fatalf("end tag = %+v", toks[2])
	}
}

func TestTokenizeAttributeStyles(t *testing.T) {
	toks := Tokenize(`<input type=text name='user' placeholder="your name" disabled>`)
	if len(toks) != 1 {
		t.Fatalf("tokens = %d", len(toks))
	}
	want := map[string]string{"type": "text", "name": "user", "placeholder": "your name", "disabled": ""}
	for _, a := range toks[0].Attrs {
		if want[a.Key] != a.Val {
			t.Errorf("attr %s = %q, want %q", a.Key, a.Val, want[a.Key])
		}
		delete(want, a.Key)
	}
	if len(want) != 0 {
		t.Errorf("missing attrs: %v", want)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks := Tokenize(`a<!-- hidden secret -->b`)
	if len(toks) != 3 || toks[1].Type != CommentToken || !strings.Contains(toks[1].Data, "hidden secret") {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	toks := Tokenize(`<script>if (a < b) { x("</div>"); }</script>`)
	// Script content must be one raw text token; the "<" inside must not
	// open a tag. Note real HTML would end at the inner </div ... raw text
	// mode ends at the first matching close of the same tag only.
	if toks[0].Data != "script" {
		t.Fatalf("first token = %+v", toks[0])
	}
	if toks[1].Type != TextToken || !strings.Contains(toks[1].Data, "if (a < b)") {
		t.Fatalf("script body = %+v", toks[1])
	}
}

func TestTokenizeLoneLT(t *testing.T) {
	toks := Tokenize(`5 < 6 but > 2`)
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type == TextToken {
			text.WriteString(tok.Data)
		}
	}
	if got := text.String(); got != "5 < 6 but > 2" {
		t.Fatalf("text = %q", got)
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a &amp; b", "a & b"},
		{"&lt;tag&gt;", "<tag>"},
		{"&#65;&#x42;", "AB"},
		{"&unknown; stays", "&unknown; stays"},
		{"&copy; 2018", "© 2018"},
		{"no refs", "no refs"},
		{"&", "&"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseNesting(t *testing.T) {
	root := Parse(`<div><p>one</p><p>two <b>bold</b></p></div>`)
	ps := root.Find("p")
	if len(ps) != 2 {
		t.Fatalf("found %d <p>, want 2", len(ps))
	}
	if ps[1].InnerText() != "two bold" {
		t.Fatalf("InnerText = %q", ps[1].InnerText())
	}
}

func TestParseTagSoupRecovery(t *testing.T) {
	// Mismatched and unclosed tags must not lose text.
	root := Parse(`<div><p>alpha<span>beta</div>gamma</p>`)
	text := root.InnerText()
	for _, want := range []string{"alpha", "beta", "gamma"} {
		if !strings.Contains(text, want) {
			t.Errorf("InnerText %q lost %q", text, want)
		}
	}
}

func TestParseVoidElements(t *testing.T) {
	root := Parse(`<p>a<br>b<img src="x.png">c</p>`)
	if len(root.Find("p")) != 1 {
		t.Fatal("void elements broke <p> tree")
	}
	if got := root.Find("p")[0].InnerText(); got != "a b c" {
		t.Fatalf("InnerText = %q", got)
	}
}

func TestInnerTextSkipsScriptStyle(t *testing.T) {
	root := Parse(`<body>visible<script>var hidden = "nope";</script><style>.x{}</style></body>`)
	text := root.InnerText()
	if strings.Contains(text, "hidden") || strings.Contains(text, ".x") {
		t.Fatalf("InnerText leaked script/style content: %q", text)
	}
}

func TestExtractSamplePage(t *testing.T) {
	p := Extract(samplePage)
	if p.Title != "PayPal — Log In" {
		t.Errorf("Title = %q", p.Title)
	}
	if len(p.Headings) != 1 || p.Headings[0] != "Welcome to PayPal" {
		t.Errorf("Headings = %v", p.Headings)
	}
	if len(p.Paragraphs) != 1 || !strings.Contains(p.Paragraphs[0], "& stay safe") {
		t.Errorf("Paragraphs = %v", p.Paragraphs)
	}
	if len(p.LinkTexts) != 1 || p.LinkTexts[0] != "Need help?" {
		t.Errorf("LinkTexts = %v", p.LinkTexts)
	}
	if len(p.Forms) != 1 {
		t.Fatalf("Forms = %d, want 1", len(p.Forms))
	}
	f := p.Forms[0]
	if f.Action != "/login" || !strings.EqualFold(f.Method, "post") {
		t.Errorf("Form = %+v", f)
	}
	if len(f.Inputs) != 3 {
		t.Fatalf("Inputs = %+v", f.Inputs)
	}
	if f.Inputs[1].Type != "password" || f.Inputs[1].Name != "pass" || f.Inputs[1].Placeholder != "Password" {
		t.Errorf("password input = %+v", f.Inputs[1])
	}
	if f.Inputs[2].Type != "submit" || f.Inputs[2].Value != "Log In" {
		t.Errorf("submit button = %+v", f.Inputs[2])
	}
	if !p.HasPasswordInput() {
		t.Error("HasPasswordInput = false")
	}
	if len(p.Images) != 1 || p.Images[0].Alt != "paypal logo" {
		t.Errorf("Images = %+v", p.Images)
	}
	if len(p.Scripts) != 1 || !strings.Contains(p.Scripts[0], "eval") {
		t.Errorf("Scripts = %v", p.Scripts)
	}
	if len(p.ScriptSrcs) != 1 || p.ScriptSrcs[0] != "/static/app.js" {
		t.Errorf("ScriptSrcs = %v", p.ScriptSrcs)
	}
	if p.MetaRefresh != "https://market.example/park" {
		t.Errorf("MetaRefresh = %q", p.MetaRefresh)
	}
}

func TestFormKeywords(t *testing.T) {
	p := Extract(samplePage)
	kws := p.FormKeywords()
	joined := strings.Join(kws, " ")
	for _, want := range []string{"password", "email or phone", "log in", "user"} {
		if !strings.Contains(joined, want) {
			t.Errorf("FormKeywords missing %q in %v", want, kws)
		}
	}
}

func TestExtractNoForms(t *testing.T) {
	p := Extract(`<html><body><h1>Just content</h1></body></html>`)
	if len(p.Forms) != 0 || p.HasPasswordInput() {
		t.Fatalf("unexpected forms: %+v", p.Forms)
	}
}

func TestExtractMultipleForms(t *testing.T) {
	p := Extract(`<form><input type=text name=a></form><form><input type=password name=b></form>`)
	if len(p.Forms) != 2 {
		t.Fatalf("Forms = %d, want 2", len(p.Forms))
	}
}

func TestNodeAttr(t *testing.T) {
	root := Parse(`<a href="/x" id=z>t</a>`)
	a := root.Find("a")[0]
	if v, ok := a.Attr("href"); !ok || v != "/x" {
		t.Fatalf("Attr(href) = %q, %v", v, ok)
	}
	if _, ok := a.Attr("missing"); ok {
		t.Fatal("Attr(missing) found")
	}
}

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	r := simrand.New(77)
	pieces := []string{"<", ">", "<div", "</", "\"", "'", "=", "<!--", "-->", "<script>", "</script>", "text", "&#", "&amp;", "<input type="}
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for j := 0; j < r.Intn(20); j++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		_ = Extract(b.String()) // must not panic
	}
}

func TestMetaRefreshVariants(t *testing.T) {
	cases := []struct{ in, want string }{
		{`<meta http-equiv="refresh" content="0;url=http://a.com">`, "http://a.com"},
		{`<meta http-equiv="Refresh" content="3; URL='http://b.com'">`, "http://b.com"},
		{`<meta http-equiv="refresh" content="5">`, ""},
	}
	for _, c := range cases {
		if got := Extract(c.in).MetaRefresh; got != c.want {
			t.Errorf("MetaRefresh(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Extract(samplePage)
	}
}

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(samplePage)
	}
}
