package squat

import "slices"

// ahoCorasick is a byte-level Aho-Corasick automaton used to find brand
// names inside domain labels in a single pass. Scanning 702 brand names
// against hundreds of millions of DNS labels with strings.Contains would be
// quadratic in practice; the automaton makes the combo-squatting check
// linear in the label length regardless of how many brands are indexed.
type ahoCorasick struct {
	next   [][256]int32 // goto function; -1 means undefined before build
	fail   []int32      // failure links
	output [][]int32    // pattern indices terminating at each state
	pats   []string
}

func newAhoCorasick(patterns []string) *ahoCorasick {
	n := trieStates(patterns)
	ac := &ahoCorasick{
		next:   make([][256]int32, 0, n),
		fail:   make([]int32, 0, n),
		output: make([][]int32, 0, n),
		pats:   patterns,
	}
	ac.addState() // root
	for pi, p := range patterns {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			if ac.next[s][c] == 0 {
				ac.next[s][c] = ac.addState()
			}
			s = ac.next[s][c]
		}
		ac.output[s] = append(ac.output[s], int32(pi))
	}
	ac.build()
	return ac
}

// trieStates counts the states of the trie over patterns, root included:
// in sorted order each distinct pattern adds one state per byte past its
// common prefix with the one before it. The automaton's 1 KB rows are
// allocated once at this size instead of grown by append.
func trieStates(patterns []string) int {
	sorted := slices.Clone(patterns)
	slices.Sort(sorted)
	n, prev := 1, ""
	for _, p := range sorted {
		common := 0
		for common < len(p) && common < len(prev) && p[common] == prev[common] {
			common++
		}
		n += len(p) - common
		prev = p
	}
	return n
}

func (ac *ahoCorasick) addState() int32 {
	ac.next = append(ac.next, [256]int32{})
	ac.fail = append(ac.fail, 0)
	ac.output = append(ac.output, nil)
	return int32(len(ac.next) - 1)
}

// build computes failure links breadth-first and converts the goto function
// into a full transition function (state 0 self-loops on undefined bytes).
func (ac *ahoCorasick) build() {
	queue := make([]int32, 0, len(ac.next))
	for c := 0; c < 256; c++ {
		if s := ac.next[0][c]; s != 0 {
			ac.fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			v := ac.next[u][c]
			if v == 0 {
				ac.next[u][c] = ac.next[ac.fail[u]][c]
				continue
			}
			ac.fail[v] = ac.next[ac.fail[u]][c]
			ac.output[v] = append(ac.output[v], ac.output[ac.fail[v]]...)
			queue = append(queue, v)
		}
	}
}

// bestMatch returns the index of the preferred pattern occurring in text:
// scanning occurrence by occurrence, a pattern replaces the current best
// only when strictly longer, so the result is the first-seen longest
// occurrence — the combo-rule preference ("facebook-login" matches
// facebook, never a hypothetical brand "face"). Returns -1 when no
// pattern occurs. Allocation-free: the automaton is walked with no
// callback, so the hot scan loop needs no closure.
//
//squat:hot
func (ac *ahoCorasick) bestMatch(text []byte) int32 {
	s := int32(0)
	best := int32(-1)
	for i := 0; i < len(text); i++ {
		s = ac.next[s][text[i]]
		for _, pi := range ac.output[s] {
			if best == -1 || len(ac.pats[pi]) > len(ac.pats[best]) {
				best = pi
			}
		}
	}
	return best
}
