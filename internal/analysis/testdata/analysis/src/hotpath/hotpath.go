// Package hotpath exercises the hotpath analyzer's allocation patterns:
// they are flagged inside the //squat:hot root itself and in everything
// it reaches, while the allocation-free map-index and comparison
// conversion forms pass.
package hotpath

import (
	"fmt"
	"strings"
)

var index = map[string]int{"paypal": 1}

// classify is the hot-loop shape: the first three conversions compile
// without copying, everything after allocates per call.
//
//squat:hot
func classify(b []byte) int {
	if n, ok := index[string(b)]; ok { // map-index form: no allocation
		return n
	}
	if string(b) == "exact" || "other" < string(b) { // comparison forms: no allocation
		return 1
	}
	key := string(b)                      //want:hotpath
	raw := []byte(label(b))               //want:hotpath
	fmt.Sprintf("%d", len(b))             //want:hotpath
	parts := strings.Split(label(b), ".") //want:hotpath
	low := strings.ToLower(label(b))      //want:hotpath
	_, _, _, _ = key, raw, parts, low
	return 0
}

// label is not marked hot, but it is reachable from the hot root
// classify: hotpath flags both the missing annotation and every
// allocation pattern inside.
func label(b []byte) string { //want:hotpath
	s := strings.ToLower(string(b))                     //want:hotpath //want:hotpath
	return fmt.Sprintf("%s.", strings.Split(s, ".")[0]) //want:hotpath //want:hotpath
}
