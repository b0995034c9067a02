// Command squatd is the verdict-serving daemon: the long-running
// deployment of SquatPhi's scanner (paper §7) that answers "is this
// domain a squatting domain" at lookup rates instead of batch-scanning
// snapshots.
//
// On boot it loads a DNS snapshot (a binary columnar -snap file, or a
// generated synthetic world with -gen), scans it through the
// incremental delta-scan engine — with -state, engine state recovered
// from the previous run's spill makes the boot scan incremental — and
// warms per-shard candidate maps behind a coordinator that routes by
// the repository-wide domain-shard convention (dnsx.ShardIndex); whether
// a name is known is read from the store itself.
//
// The daemon serves on ONE hardened listener (internal/obs: header,
// read and idle timeouts, graceful drain):
//
//	GET  /verdict?domain=D    one verdict
//	POST /verdicts            bulk: JSON array of domains
//	POST /update              streaming record updates
//	GET  /healthz             {"shards":N} once warmed and serving
//	/metrics /debug/pprof   the obs debug surface
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"squatphi/internal/deltascan"
	"squatphi/internal/dnsx"
	"squatphi/internal/fsx"
	"squatphi/internal/obs"
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
	statePath := flag.String("state", "", "delta-scan spill path: recovered on boot (incremental warm), saved atomically on shutdown")
	metricsPath := flag.String("metrics", "", "write the final metrics snapshot to this file on shutdown")
	smoke := flag.Bool("smoke", false, "boot, answer one self-lookup, then exit through the full graceful-shutdown path")
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

	store, err := loadStore(*snapPath, *gen, *seed, brands)
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
	cands := engine.Scan(store, matcher, 0)
	st := engine.LastStats()
	log.Printf("boot scan: %d candidates in %.1fms (full=%v, %d/%d shards rescanned)",
		len(cands), sw.Millis(), st.FullScan, st.ShardsRescanned, st.ShardsRescanned+st.ShardsSkipped)

	coord := serve.New(serve.Config{
		Shards:  store.NumShards(),
		Matcher: matcher,
		Metrics: reg,
	})
	if err := coord.Warm(store, cands); err != nil {
		log.Fatal(err)
	}

	// spill re-scans and saves the delta state on the way out, so the
	// spill covers records streamed in since boot (unchanged shards make
	// the re-scan cheap). It exists only with -state: any later use of
	// engine in main keeps the boot scan's state (~25 MB on serve-mixed)
	// live while serving.
	var spill func() error
	if *statePath != "" {
		spill = func() error {
			engine.Scan(store, matcher, 0)
			if err := engine.SaveFile(*statePath); err != nil {
				return err
			}
			log.Printf("delta state saved to %s (epoch %d)", *statePath, engine.Epoch())
			return nil
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	// Collect the boot's garbage before serving: the boot scan's result,
	// and the delta engine unless a -state spill keeps it, are dead by
	// now. Without this the next collection's goal can be set from the
	// boot scan's transient heap, and serving's garbage grows to twice
	// that before anything collects it.
	runtime.GC()

	dbg, err := obs.Serve(*addr, reg, coord.Routes()...)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving verdicts on http://%s (/verdict, /verdicts, /update, /healthz, /metrics)", dbg.Addr())

	if *smoke {
		err = selfSmoke(dbg.Addr(), brands[0])
	} else {
		<-ctx.Done()
		log.Printf("signalled; draining...")
	}
	stop() // a second signal kills the process outright

	// The listener drains first, then the delta state is spilled
	// (reflecting every update the store absorbed), then metrics flush
	// last. Each step runs even if an earlier one failed.
	shutCtx, cancel := context.WithTimeout(context.Background(), obs.ShutdownGrace)
	defer cancel()
	err = errors.Join(err, dbg.Shutdown(shutCtx))
	if spill != nil {
		err = errors.Join(err, spill())
	}
	if *metricsPath != "" {
		err = errors.Join(err, fsx.WriteFile(*metricsPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(reg.Snapshot())
		}))
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shutdown complete")
}

// loadStore resolves the snapshot source flags.
func loadStore(snapPath string, gen int, seed uint64, brands []squat.Brand) (*dnsx.Store, error) {
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
			Planted: planted, NoiseRecords: gen, Seed: seed,
		}), nil
	default:
		return nil, fmt.Errorf("need a snapshot source: -snap FILE or -gen N")
	}
}

// selfSmoke drives one verdict lookup and the health check against the
// daemon's own listener; main then shuts down as on a signal, so make
// serve-smoke runs boot → serve → drain → spill → flush in one command.
func selfSmoke(addr string, brand squat.Brand) error {
	cli := &http.Client{Timeout: 10 * time.Second}
	probe := "xn--" + brand.Name + "-test." + brand.TLD // a wrongish name; any answer proves the path
	for _, url := range []string{
		"http://" + addr + "/verdict?domain=" + probe,
		"http://" + addr + "/healthz",
	} {
		resp, err := cli.Get(url)
		if err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		log.Printf("smoke: %s -> %d %s", url, resp.StatusCode, string(body))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("smoke: %s answered %d", url, resp.StatusCode)
		}
	}
	return nil
}
