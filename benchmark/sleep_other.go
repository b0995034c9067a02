//go:build !linux

package main

import "time"

// sleepUntil blocks until t, at the resolution of the Go runtime's timers.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
