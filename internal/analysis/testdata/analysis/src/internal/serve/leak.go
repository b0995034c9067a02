// Package serve exercises the lifecycleleak analyzer: every goroutine
// spawned in serving code must be join-able, whether its body is a
// literal or a named function resolved through the call graph.
package serve

import (
	"context"
	"runtime"
	"sync"
)

func work() {}

// leakNaked spawns a goroutine nobody can wait for.
func leakNaked() {
	go func() { //want:lifecycleleak
		work()
	}()
}

// okWaitGroup signals a WaitGroup the spawner can Wait on.
func okWaitGroup(wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
		work()
	}()
}

// okCtx exits with cancellation.
func okCtx(ctx context.Context, in chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-in:
				_ = v
			}
		}
	}()
}

// okRange drains until the spawner closes the channel.
func okRange(in chan int) {
	go func() {
		for v := range in {
			_ = v
		}
	}()
}

// joinedWorker loops until cancellation; spawning it by name is fine
// because the analyzer resolves the body through the call graph.
func joinedWorker(ctx context.Context) {
	<-ctx.Done()
}

func leakyWorker() { work() }

func spawnNamed(ctx context.Context) {
	go joinedWorker(ctx)
	go leakyWorker() //want:lifecycleleak
}

// spawnValue calls through a function value, which cannot be proven
// join-able.
func spawnValue(f func()) {
	go f() //want:lifecycleleak
}

// spawnExternal spawns a body outside the analyzed packages.
func spawnExternal() {
	go runtime.Gosched() //want:lifecycleleak
}
