package serve

import (
	"reflect"
	"testing"
	"time"

	"squatphi/internal/obs"
	"squatphi/internal/retry"
	"squatphi/internal/simrand"
)

// TestChaosShardKillExactCounters kills a shard mid-traffic and pins
// the failure posture exactly: every request routed to the dead shard
// is answered degraded (with the correct stateless verdict), the
// breaker opens after precisely BreakerThreshold failures and
// fast-fails the rest, one half-open probe closes it after restart,
// and the post-recovery hot state is byte-identical to a cold serial
// scan of the (mutated) store. Deterministic end to end: seeded
// request schedule, injected clock for the breaker cooldown.
func TestChaosShardKillExactCounters(t *testing.T) {
	store, m, cands := testWorld(t, 3000, 8, 47)
	reg := obs.NewRegistry()

	clock := time.Unix(1000, 0)
	const threshold = 3
	const cooldown = 30 * time.Second
	c := New(Config{
		Shards:  store.NumShards(),
		Matcher: m,
		Metrics: reg,
		Breaker: retry.Policy{
			BreakerThreshold: threshold,
			BreakerCooldown:  cooldown,
			Now:              func() time.Time { return clock },
		},
	})
	if err := c.Warm(store, cands); err != nil {
		t.Fatal(err)
	}

	// The victim: the shard holding the first planted candidate.
	victim := c.ShardFor(cands[0].Domain)

	rng := simrand.New(301)
	domains := store.Domains()
	const (
		steps     = 2400
		killAt    = 800  // StopShard(victim)
		restartAt = 1600 // RestartShard(victim) + clock past cooldown
	)
	down := false
	victimOpsDown := 0 // ops routed to the victim while it was down
	expDegraded := 0

	for step := 0; step < steps; step++ {
		if step == killAt {
			c.StopShard(victim)
			down = true
		}
		if step == restartAt {
			if err := c.RestartShard(victim); err != nil {
				t.Fatal(err)
			}
			clock = clock.Add(cooldown + time.Second)
			down = false
		}

		var d string
		var v Verdict
		switch {
		case rng.Float64() < 0.10: // streaming update
			d = rng.Letters(9) + ".com"
			v = c.Apply(d, [4]byte{10, 8, byte(step >> 8), byte(step)})
		case rng.Float64() < 0.15: // lookup miss
			d = rng.Letters(12) + ".net"
			v = c.Lookup(d)
		default: // lookup of a snapshot domain
			d = domains[rng.Intn(len(domains))]
			v = c.Lookup(d)
		}

		hitVictim := c.ShardFor(d) == victim
		if down && hitVictim {
			victimOpsDown++
			expDegraded++
			if !v.Degraded {
				t.Fatalf("step %d: op on dead shard not degraded: %+v", step, v)
			}
			// Degraded answers are still correct verdicts.
			_, want := m.Match(v.Domain)
			if v.Matched != want {
				t.Fatalf("step %d: degraded verdict wrong: %+v, matcher says %v", step, v, want)
			}
			if v.Known {
				t.Fatalf("step %d: degraded answer claims snapshot knowledge: %+v", step, v)
			}
		} else if v.Degraded {
			t.Fatalf("step %d: healthy-path op degraded: %+v (shard %d, victim %d, down %v)",
				step, v, c.ShardFor(d), victim, down)
		}
	}
	if victimOpsDown <= threshold {
		t.Fatalf("schedule routed only %d ops to the dead shard; need > %d for the breaker to open", victimOpsDown, threshold)
	}

	// Exact breaker accounting: the first `threshold` ops on the dead
	// shard probe it and fail (opening the circuit on the last), every
	// later one is fast-failed by the open breaker, and recovery costs
	// exactly one half-open probe which closes the circuit.
	snap := reg.Snapshot()
	wantCounters := map[string]int64{
		"serve.breaker.opens":            1,
		"serve.breaker.closes":           1,
		"serve.breaker.half_open_probes": 1,
		"serve.breaker.rejected":         int64(victimOpsDown - threshold),
		"core.degraded.serve":            int64(expDegraded),
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Counters["serve.lookups"] + snap.Counters["serve.updates"]; got != steps {
		t.Errorf("op accounting: lookups+updates = %d, want %d", got, steps)
	}

	// Post-recovery equivalence: the hot sweep must be byte-identical
	// to a serial scan of the store, which absorbed every update —
	// including the ones applied while the victim shard was down.
	got := c.Candidates()
	want := serialCandidates(store, m)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery sweep diverged from the serial reference: %d vs %d candidates", len(got), len(want))
	}
	if down := c.Down(); len(down) != 0 {
		t.Fatalf("shards still down after recovery: %v", down)
	}
}
