// Package brokenpkg fails to type-check on purpose: squatvet must exit 2
// and name it.
package brokenpkg

// Bad assigns an untyped int to a string.
func Bad() string {
	var s string = 42
	return s
}
