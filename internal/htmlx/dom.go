package htmlx

import "strings"

// NodeType distinguishes DOM node kinds.
type NodeType int

const (
	// ElementNode is a tag with children.
	ElementNode NodeType = iota
	// TextNode is character data.
	TextNode
)

// Node is a DOM-subset node.
type Node struct {
	Type     NodeType
	Tag      string // element tag name, lower case
	Text     string // text content for TextNode
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// voidTags never have children (HTML void elements).
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// Parse builds a DOM tree from HTML source using tag-soup recovery: a
// mismatched end tag closes the nearest matching open element, or is
// dropped if none is open.
func Parse(src string) *Node {
	root := &Node{Type: ElementNode, Tag: "#root"}
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }

	for _, tok := range Tokenize(src) {
		switch tok.Type {
		case TextToken:
			top().append(&Node{Type: TextNode, Text: tok.Data})
		case CommentToken:
			// dropped
		case SelfClosingToken:
			top().append(&Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs})
		case StartTagToken:
			n := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs}
			top().append(n)
			if !voidTags[tok.Data] {
				stack = append(stack, n)
			}
		case EndTagToken:
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return root
}

func (n *Node) append(child *Node) {
	child.Parent = n
	n.Children = append(n.Children, child)
}

// Walk visits n and its descendants depth-first, stopping if fn returns
// false for any node (its subtree is still skipped as a unit).
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// InnerText concatenates all descendant text, whitespace-normalised.
func (n *Node) InnerText() string {
	var parts []string
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && (c.Tag == "script" || c.Tag == "style") {
			return false
		}
		if c.Type == TextNode {
			if t := strings.TrimSpace(c.Text); t != "" {
				parts = append(parts, collapseSpace(t))
			}
		}
		return true
	})
	return strings.Join(parts, " ")
}

func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
