// Command squatd is the verdict-serving daemon: the long-running
// deployment of SquatPhi's scanner (paper §7) that answers "is this
// domain a squatting domain" at lookup rates instead of batch-scanning
// snapshots.
//
// On boot it loads a DNS snapshot (a binary columnar -snap file, or a
// generated synthetic world with -gen), scans it through the
// incremental delta-scan engine — with -state, engine state recovered
// from the previous run's spill makes the boot scan incremental — and
// warms per-shard hot verdict state behind a coordinator that routes by
// the repository-wide domain-shard convention (dnsx.ShardIndex).
//
// The daemon serves on ONE hardened listener (internal/obs: header,
// read and idle timeouts, graceful drain):
//
//	GET  /verdict?domain=D    one verdict
//	POST /verdicts            bulk: JSON array of domains
//	POST /update              streaming record updates
//	GET  /healthz             shard health
//	/metrics /spans /debug/pprof   the obs debug surface
//
// Failure posture: a downed shard degrades to stateless matcher
// answers behind a circuit breaker (core.degraded.serve,
// serve.breaker.*) instead of failing lookups.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener drains
// in-flight requests, the delta-scan spill is saved atomically (so the
// next boot is incremental), and the final metrics snapshot is flushed.
//
// Usage:
//
//	squatd -gen 100000 -addr :8787 -state squatd.spill paypal.com facebook.com
//	squatd -snap snapshot.snap -addr :8787 paypal.com
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"syscall"
	"time"

	"squatphi/internal/deltascan"
	"squatphi/internal/dnsx"
	"squatphi/internal/fsx"
	"squatphi/internal/obs"
	"squatphi/internal/retry"
	"squatphi/internal/serve"
	"squatphi/internal/snapfmt"
	"squatphi/internal/squat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("squatd: ")
	addr := flag.String("addr", ":8787", "serve verdicts and the debug surface on this address")
	snapPath := flag.String("snap", "", "load a binary columnar snapshot (internal/snapfmt)")
	gen := flag.Int("gen", 0, "serve a generated synthetic snapshot with N noise records")
	seed := flag.Uint64("seed", 1, "generation seed for -gen")
	shards := flag.Int("shards", 0, "shard count for -gen stores (0 = dnsx default)")
	statePath := flag.String("state", "", "delta-scan spill path: recovered on boot (incremental warm), saved atomically on shutdown")
	workers := flag.Int("workers", 0, "boot-scan parallelism (0 = all cores)")
	metricsPath := flag.String("metrics", "", "write the final metrics snapshot to this file on shutdown")
	grace := flag.Duration("grace", obs.ShutdownGrace, "how long shutdown waits for in-flight requests and flushes")
	smoke := flag.Bool("smoke", false, "boot, answer one self-lookup, then exit through the full graceful-shutdown path")
	pol := retry.RegisterFlags(nil) // -breaker-* flags shared with the other binaries
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("no brands given; usage: squatd [-snap FILE | -gen N] [-addr :8787] BRAND_DOMAIN...")
	}

	var brands []squat.Brand
	for _, arg := range flag.Args() {
		brands = append(brands, squat.NewBrand(arg))
	}
	matcher := squat.NewMatcher(brands)
	reg := obs.NewRegistry()
	matcher.InstrumentMetrics(reg)

	store, err := loadStore(*snapPath, *gen, *seed, *shards, brands)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("snapshot loaded: %d records in %d shards", store.Len(), store.NumShards())

	// Boot scan through the delta engine: with recovered spill state the
	// scan touches only shards whose checksums changed since last run.
	engine := deltascan.NewEngine()
	if *statePath != "" {
		var recovered bool
		engine, recovered, err = deltascan.Recover(*statePath)
		if err != nil {
			log.Printf("state %s unreadable (%v); falling back to a full boot scan", *statePath, err)
		} else if recovered {
			log.Printf("state recovered from %s (epoch %d)", *statePath, engine.Epoch())
		}
	}
	engine.InstrumentMetrics(reg)
	sw := obs.StartStopwatch()
	cands := engine.Scan(store, matcher, *workers)
	st := engine.LastStats()
	log.Printf("boot scan: %d candidates in %.1fms (full=%v, %d/%d shards rescanned)",
		len(cands), sw.Millis(), st.FullScan, st.ShardsRescanned, st.ShardsRescanned+st.ShardsSkipped)

	if pol.BreakerThreshold == 0 {
		pol.BreakerThreshold = 3
	}
	coord := serve.New(serve.Config{
		Shards:  store.NumShards(),
		Matcher: matcher,
		Metrics: reg,
		Breaker: *pol,
	})
	if err := coord.Warm(store, cands); err != nil {
		log.Fatal(err)
	}

	lc := serve.NewLifecycle()
	ctx := lc.Watch(context.Background(), os.Interrupt, syscall.SIGTERM)

	// Shutdown hooks run LIFO: the listener drains first, then the
	// delta state is spilled (reflecting every update the store
	// absorbed), then metrics flush last.
	if *metricsPath != "" {
		lc.OnShutdown("metrics", func(context.Context) error {
			return fsx.WriteFile(*metricsPath, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(reg.Snapshot())
			})
		})
	}
	if *statePath != "" {
		lc.OnShutdown("delta-state", func(context.Context) error {
			// Re-scan before spilling so the saved state covers records
			// streamed in since boot; unchanged shards make it cheap.
			engine.Scan(store, matcher, *workers)
			if err := engine.SaveFile(*statePath); err != nil {
				return err
			}
			log.Printf("delta state saved to %s (epoch %d)", *statePath, engine.Epoch())
			return nil
		})
	}

	dbg, err := obs.Serve(*addr, reg, nil, coord.Routes()...)
	if err != nil {
		log.Fatal(err)
	}
	lc.OnShutdown("listener-drain", dbg.Shutdown)
	reg.PublishExpvar("squatd")
	log.Printf("serving verdicts on http://%s (/verdict, /verdicts, /update, /healthz, /metrics)", dbg.Addr())

	if *smoke {
		go selfSmoke(dbg.Addr(), brands[0], lc)
	}

	<-ctx.Done()
	if sig := lc.Signal(); sig != nil {
		log.Printf("received %v; draining...", sig)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := lc.Shutdown(shutCtx); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutdown complete")
}

// loadStore resolves the snapshot source flags.
func loadStore(snapPath string, gen int, seed uint64, shards int, brands []squat.Brand) (*dnsx.Store, error) {
	switch {
	case snapPath != "" && gen > 0:
		return nil, fmt.Errorf("-snap and -gen are mutually exclusive")
	case snapPath != "":
		snap, err := snapfmt.Open(snapPath)
		if err != nil {
			return nil, err
		}
		defer snap.Close()
		return snap.ReadStore()
	case gen > 0:
		g := squat.NewGenerator()
		var planted []string
		for _, b := range brands {
			for i, c := range g.Generate(b) {
				if i%5 == 0 {
					planted = append(planted, c.Domain)
				}
			}
		}
		return dnsx.GenerateSnapshot(dnsx.SnapshotSpec{
			Planted: planted, NoiseRecords: gen, Seed: seed, Shards: shards,
		}), nil
	default:
		return nil, fmt.Errorf("need a snapshot source: -snap FILE or -gen N")
	}
}

// selfSmoke drives one verdict lookup and the health check against the
// daemon's own listener, then requests graceful shutdown — the boot →
// serve → drain → flush path in one command for make serve-smoke.
func selfSmoke(addr string, brand squat.Brand, lc *serve.Lifecycle) {
	cli := &http.Client{Timeout: 10 * time.Second}
	probe := "xn--" + brand.Name + "-test." + brand.TLD // a wrongish name; any answer proves the path
	for _, url := range []string{
		"http://" + addr + "/verdict?domain=" + probe,
		"http://" + addr + "/healthz",
	} {
		resp, err := cli.Get(url)
		if err != nil {
			log.Printf("smoke: %s: %v", url, err)
			os.Exit(1)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		log.Printf("smoke: %s -> %d %s", url, resp.StatusCode, string(body))
		if resp.StatusCode != http.StatusOK {
			os.Exit(1)
		}
	}
	lc.Deliver(syscall.SIGTERM)
}
