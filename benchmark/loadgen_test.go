package main

import (
	"context"
	"math"
	"testing"
	"time"

	"squatphi/internal/simrand"
)

// One connection, requests due every millisecond, a sender that takes
// five: the generator falls behind, and both the lateness and the latency
// charged from the DUE time must show it.
func TestOpenLoopTimesFromDueTimeUnderSlowSender(t *testing.T) {
	const n = 6
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	const service = 5 * time.Millisecond
	res := runOpenLoop(context.Background(), due, 1, time.Second, func(conn, i int) { time.Sleep(service) })
	if q := res.queued(); q != 0 {
		t.Fatalf("%d requests left queued", q)
	}
	for i := 1; i < n; i++ {
		// Request i cannot start before the i requests ahead of it are
		// served, i.e. at i*service, while it was due at i ms.
		minLate := us(time.Duration(i)*service - due[i])
		if res.lateUS[i] < minLate {
			t.Errorf("request %d ran %.0fus late, want at least %.0fus", i, res.lateUS[i], minLate)
		}
		if res.latencyUS[i] < res.lateUS[i]+us(service) {
			t.Errorf("request %d: latency %.0fus does not include its %.0fus wait plus %.0fus of service",
				i, res.latencyUS[i], res.lateUS[i], us(service))
		}
	}
	if res.lateUS[n-1] <= res.lateUS[1] {
		t.Errorf("lateness did not grow along the backlog: %v", res.lateUS)
	}
}

func TestOpenLoopCountsWhatThePhaseEndLeavesQueued(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	res := runOpenLoop(context.Background(), due, 1, 4*time.Millisecond, func(conn, i int) { time.Sleep(10 * time.Millisecond) })
	if !res.sent[0] {
		t.Fatal("the first request was not sent")
	}
	if q := res.queued(); q != 3 {
		t.Errorf("queued = %d, want the 3 requests the slow first one held up past the phase end", q)
	}
}

func TestOpenLoopKeepsScheduleWhenSenderKeepsUp(t *testing.T) {
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 500 * time.Microsecond
	}
	var order []int
	res := runOpenLoop(context.Background(), due, 1, time.Second, func(conn, i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("requests sent out of order: %v", order)
		}
	}
	if res.wall < due[len(due)-1] {
		t.Errorf("phase took %v, shorter than its last due time %v: requests were sent early", res.wall, due[len(due)-1])
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	perConn := make([]int, 2)
	completed, wall, windows := runClosedLoop(context.Background(), 2*closedWindow, 2, func(conn, k int) {
		if k != perConn[conn] {
			t.Errorf("connection %d got request %d, want %d", conn, k, perConn[conn])
		}
		perConn[conn]++
		time.Sleep(time.Millisecond)
	})
	if int(completed) != perConn[0]+perConn[1] || completed < 4 {
		t.Errorf("completed = %d, connections sent %v", completed, perConn)
	}
	if wall < 2*closedWindow {
		t.Errorf("closed loop ended after %v, before its time was up", wall)
	}
	if len(windows) != 2 || windows[0] == 0 || windows[0]+windows[1] > completed {
		t.Errorf("windows = %v of %d completions, want two non-empty whole windows", windows, completed)
	}
}

func TestPoissonDue(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		return poissonDue(simrand.New(seed).Float64, 4000, 2*time.Second)
	}
	a, b := draw(7), draw(7)
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	if rate := float64(len(a)) / 2; math.Abs(rate-4000) > 200 {
		t.Errorf("drew %.0f arrivals per second, want about 4000", rate)
	}
	if c := draw(8); len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed drew the same arrivals")
	}
}
