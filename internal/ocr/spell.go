package ocr

import "strings"

// Spellchecker corrects OCR misreads against a dictionary, reproducing the
// paper's post-OCR spell-checking step ("passwod" -> "password", §5.2).
// Candidates within edit distance 1 (distance 2 for words of 6+ letters)
// are replaced by the highest-priority dictionary word; exact dictionary
// hits and unknown far-away words pass through unchanged.
type Spellchecker struct {
	words map[string]int // word -> priority (lower = preferred)
	// byLen[n] holds the dictionary words of n letters, so a lookup visits
	// only the lengths its edit bound can reach.
	byLen [][]candidate
}

type candidate struct {
	word string
	prio int
}

// NewSpellchecker builds a checker; earlier dictionary words win ties.
func NewSpellchecker(dictionary []string) *Spellchecker {
	s := &Spellchecker{words: make(map[string]int, len(dictionary))}
	for i, w := range dictionary {
		w = strings.ToLower(w)
		if _, dup := s.words[w]; dup {
			continue
		}
		s.words[w] = i
		for len(s.byLen) <= len(w) {
			s.byLen = append(s.byLen, nil)
		}
		s.byLen[len(w)] = append(s.byLen[len(w)], candidate{w, i})
	}
	return s
}

// Correct returns the corrected form of one word.
func (s *Spellchecker) Correct(word string) string {
	w := strings.ToLower(word)
	if _, ok := s.words[w]; ok {
		return w
	}
	maxDist := 1
	if len(w) >= 6 {
		maxDist = 2
	}
	best := ""
	bestDist := maxDist + 1
	bestPrio := int(^uint(0) >> 1)
	for n := max(len(w)-maxDist, 0); n <= len(w)+maxDist && n < len(s.byLen); n++ {
		for _, cand := range s.byLen[n] {
			d := boundedEditDistance(w, cand.word, maxDist)
			if d < 0 {
				continue
			}
			if d < bestDist || d == bestDist && cand.prio < bestPrio {
				best, bestDist, bestPrio = cand.word, d, cand.prio
			}
		}
	}
	if best != "" {
		return best
	}
	return w
}

// CorrectAll corrects a word list in place order, returning a new slice.
func (s *Spellchecker) CorrectAll(words []string) []string {
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = s.Correct(w)
	}
	return out
}

// editRowLen is the stack row size of boundedEditDistance: enough for any
// dictionary word (the longest has 9 letters) with room to spare.
const editRowLen = 16

// boundedEditDistance returns the Levenshtein distance between a and b, or
// -1 if it exceeds bound. The band optimisation keeps the scan cheap for
// dictionary-wide lookups, and the two DP rows live on the stack unless b
// is longer than any dictionary word.
func boundedEditDistance(a, b string, bound int) int {
	if abs(len(a)-len(b)) > bound {
		return -1
	}
	n := len(b) + 1
	var rows [2][editRowLen]int
	prev, cur := rows[0][:], rows[1][:]
	if n > editRowLen {
		prev, cur = make([]int, n), make([]int, n)
	}
	prev, cur = prev[:n], cur[:n]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if v := prev[j] + 1; v < m {
				m = v
			}
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return -1
		}
		prev, cur = cur, prev
	}
	if prev[len(b)] > bound {
		return -1
	}
	return prev[len(b)]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
