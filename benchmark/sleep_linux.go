package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. Go's timers wake through epoll, whose
// timeout has millisecond resolution, so time.Sleep overshoots by up to a
// millisecond — several times a loopback round trip. nanosleep(2) blocks
// the thread on a high-resolution timer instead and wakes within the
// kernel's timer slack (50 µs by default).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// EINTR and early returns are handled by looping on the clock.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
