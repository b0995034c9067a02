# SquatPhi reproduction — convenience targets. Everything is stdlib Go;
# `go build ./...` with Go >= 1.22 is the only real requirement.

GO ?= go

.PHONY: all build test test-short race race-short chaos bench bench-all bench-check bench-selftest vet fmt fmt-check lint lint-list fuzz fuzz-smoke cover provenance-check serve-smoke monitor-smoke verify paperbench pipeline clean

all: build vet fmt-check lint test

build:
	$(GO) build ./...

# Two vet passes: the default analyzer set, then an explicit second pass
# that force-enables the unreachable-code and unused-result checks (they
# are off by default under some build configurations).
vet:
	$(GO) vet ./...
	$(GO) vet -unreachable -unusedresult ./...

fmt:
	gofmt -l -w .

# Fail if any file needs reformatting (CI gate; `make fmt` fixes).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@echo "gofmt clean"

# Repo-specific static analysis: squatvet enforces the determinism,
# metric-naming, transport, retry-convention, lock-hygiene, hot-path
# (intra- and interprocedural via the whole-repo call graph),
# goroutine-lifecycle and error-flow invariants against the committed
# squatvet.baseline. Fails on any fresh finding; -time prints the
# package count and per-analyzer wall time (plus the one-time call-graph
# construction) to stderr.
lint:
	$(GO) run ./cmd/squatvet -time ./...

# List every analyzer with the invariant it guards.
lint-list:
	$(GO) run ./cmd/squatvet -list

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race detector + vet across the whole tree (CI gate for the concurrent
# paths: obs registry/spans, crawler pool, DNS server/prober, sharded
# store, scan/score pools). The race detector is 5-20x slower than native;
# the heavyweight packages (core, experiments) need more than the default
# 10m per-package budget on small machines.
race: chaos
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./...

# Time-bounded race pass for the gate every PR runs: the packages whose
# shared structures scan and serve workers read concurrently (the matcher's
# label index and gate, the model's scoring table, the scan pools, the
# deltascan shard state, the squatd shards, the sharded store and the
# snapshot mapping the scan workers read, the metrics registry and span
# collector, the crawler pool and the detection scoring its visit hook runs
# on the crawl workers; deltascan's Scans racing Store.Add writers), short
# mode, one run.
# `race` above is the full, slow one.
race-short:
	$(GO) test -race -short -count=1 -timeout 10m \
		./internal/squat ./internal/core ./internal/deltascan ./internal/serve \
		./internal/domlm ./internal/obs/... ./internal/dnsx ./internal/snapfmt ./internal/crawler

# Deterministic chaos suite: drives the crawler, DNS prober, and whois
# client through seeded fault injection (internal/faultx) under the race
# detector. Fault plans are pure functions of (seed, key, attempt), so the
# tests assert exact counter values and identical snapshots at any worker
# count; the seed matrix is fixed inside the test files. Runs first in the
# `race` gate so resilience regressions fail fast.
chaos: lint
	$(GO) test -race -count=1 -timeout 10m \
		./internal/faultx ./internal/retry ./internal/crawler \
		./internal/dnsx ./internal/whois ./internal/serve

# The benchmark: all five workloads (scan-zone, scan-zone-lm, rescan-delta,
# serve-mixed, detect-pages), each printing its metrics and a JSON result
# line. See benchmark/README.md for the flags and the metrics.
bench:
	bash benchmark/run.sh

# Go benchmarks across every package, the root package's paper artifacts
# and parallel scan/score/fit spine included (slow).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Zero-allocation gate for the scan hot loop: the matcher miss path must
# not allocate. testing.AllocsPerRun pins it over the corpora of the
# miss benchmarks: TestMatchMissZeroAlloc(+Instrumented|LM|ACE), the
# five-brand matcher (LM attached and benign xn-- records included), and,
# in the root package, TestMatchMissUniverseZeroAlloc, what scan-zone runs:
# 850 brands over every record of a noise arena. hotpath
# (make lint) is the static half of the same contract. Beside it, the back
# half's allocation budgets: one OCR pass over a full-page capture stays
# under 256 KB, and a spell-check miss allocates nothing. And the warm
# rescan's, on a benchmark-shaped deltascan fixture (233K records, 2,048
# shards): loading its spill allocates at most 0.5 objects per candidate,
# and a warm epoch matches only the names it added and allocates at most
# 1.25x the slice it returns, so a per-name string, value or structure
# cannot come back unnoticed. And the matcher's footprint: one matcher over
# the real brand universe retains at most 28 MB of live heap. And squatd's:
# a warmed serve coordinator retains heap for its candidates only, never a
# verdict per record. And the store's: a generated dnsx.Store retains at
# most 80 B of live heap per record. And detection's: DetectInWild over all
# four snapshots retains at most 32 KB per candidate per crawled snapshot,
# at two world sizes, so a cached crawl that keeps its screenshots fails.
bench-check:
	$(GO) test -run '^TestMatchMissZeroAlloc' -count=1 ./internal/squat
	$(GO) test -run '^TestStoreRetainedBytes$$' -count=1 -v ./internal/dnsx
	$(GO) test -run '^TestDetectRetainsNoPixels$$' -count=1 -v ./internal/core
	$(GO) test -run '^(TestMatchMissUniverseZeroAlloc|TestUniverseMatcherHeap)$$' -count=1 -v .
	$(GO) test -run '^TestWarmRetainsOnlyCandidates$$' -count=1 -v ./internal/serve
	$(GO) test -run '^(TestRecognizeAllocBudget|TestSpellcheckZeroAlloc)$$' -count=1 ./internal/ocr
	$(GO) test -run '^(TestLoadAllocBudget|TestWarmEpochWalksOnlyNewNames)$$' -count=1 -v ./internal/deltascan

# The benchmark is its own module (benchmark/go.mod), so the root
# `go test ./...` neither builds nor tests it: a signature change that
# breaks its build would otherwise surface only in an acceptance run.
bench-selftest:
	cd benchmark && $(GO) test ./...

# Short fuzz campaigns on the parser-facing packages. Each invocation
# anchors a single target (go test allows only one -fuzz match per run).
fuzz: fuzz-smoke

fuzz-smoke:
	$(GO) test -fuzz '^FuzzExtract$$' -fuzztime 30s ./internal/htmlx/
	$(GO) test -fuzz '^FuzzAnalyze$$' -fuzztime 30s ./internal/jsx/
	$(GO) test -fuzz '^FuzzUnpack$$' -fuzztime 30s ./internal/dnsx/
	$(GO) test -fuzz '^FuzzParseZone$$' -fuzztime 30s ./internal/dnsx/
	$(GO) test -fuzz '^FuzzStoreVsModel$$' -fuzztime 30s ./internal/dnsx/
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/punycode/
	$(GO) test -fuzz '^FuzzEncodeRoundTrip$$' -fuzztime 30s ./internal/punycode/
	$(GO) test -fuzz '^FuzzToUnicode$$' -fuzztime 30s ./internal/punycode/
	$(GO) test -fuzz '^FuzzSkeleton$$' -fuzztime 30s ./internal/confusables/
	$(GO) test -fuzz '^FuzzFold$$' -fuzztime 30s ./internal/confusables/
	$(GO) test -fuzz '^FuzzSkeletonParity$$' -fuzztime 30s ./internal/confusables/
	$(GO) test -fuzz '^FuzzMatchBytesParity$$' -fuzztime 30s ./internal/squat/
	$(GO) test -fuzz '^FuzzMatchVsReference$$' -fuzztime 30s ./internal/squat/
	$(GO) test -fuzz '^FuzzACESkeletonParity$$' -fuzztime 30s ./internal/squat/
	$(GO) test -fuzz '^FuzzScoreBytes$$' -fuzztime 30s ./internal/domlm/
	$(GO) test -fuzz '^FuzzGateVsReference$$' -fuzztime 30s ./internal/domlm/
	$(GO) test -fuzz '^FuzzModelDecode$$' -fuzztime 30s ./internal/domlm/
	$(GO) test -fuzz '^FuzzOpenBytes$$' -fuzztime 30s ./internal/snapfmt/
	$(GO) test -fuzz '^FuzzLoad$$' -fuzztime 30s ./internal/deltascan/
	$(GO) test -fuzz '^FuzzRecognizeParity$$' -fuzztime 30s ./internal/ocr/

# Per-package coverage with a floor: the detection spine (dnsx store +
# codec, snapfmt snapshot, squat matcher, core pipeline, deltascan engine
# and the recfile framing its spill is written in), the back half's
# OCR engine and feature extractor, and the squatvet analysis driver +
# call graph must each keep at least COVER_FLOOR% statement coverage;
# internal/analysis itself is held to the higher COVER_FLOOR_ANALYSIS so
# the analyzer suite cannot silently decay.
COVER_PKGS = ./internal/dnsx ./internal/snapfmt ./internal/squat ./internal/core ./internal/deltascan ./internal/recfile ./internal/analysis ./internal/analysis/callgraph ./internal/domlm ./internal/ocr ./internal/features
COVER_FLOOR = 60
COVER_FLOOR_ANALYSIS = 85.5

cover:
	$(GO) test -cover $(COVER_PKGS) | tee cover_output.txt
	@awk -v floor=$(COVER_FLOOR) -v afloor=$(COVER_FLOOR_ANALYSIS) ' \
		/coverage:/ { \
			pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
			f = floor; if ($$2 == "squatphi/internal/analysis") f = afloor; \
			if (pct + 0 < f) { printf "coverage floor violated: %s at %s%% (floor %s%%)\n", $$2, pct, f; bad = 1 } \
		} END { exit bad }' cover_output.txt
	@echo "coverage floors $(COVER_FLOOR)% / $(COVER_FLOOR_ANALYSIS)% (internal/analysis) held"

# Serving-path smoke: boot squatd on a generated snapshot bound to an
# ephemeral loopback port, answer a self-lookup and the health check,
# then exit through the full graceful-shutdown path (listener drain →
# delta-state spill → metrics flush). Exercises boot scan, shard warm,
# HTTP serving, signal handling and atomic persistence in one command.
serve-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/squatd -gen 20000 -addr 127.0.0.1:0 \
		-state $$tmp/squatd.spill -metrics $$tmp/metrics.json \
		-smoke paypal.com facebook.com; rc=$$?; \
	rm -rf $$tmp; exit $$rc

# Monitor smoke: squatmond bootstraps its classifier and runs three rounds
# into a temporary report; every report line must decode as an Alert and
# the flushed metrics snapshot must count three rounds and every alert.
# Three rounds because that world raises its first alerts in round 3.
monitor-smoke:
	$(GO) test -run '^TestMonitorSmoke$$' -count=1 ./cmd/squatmond

# Provenance golden: one serial pipeline run must reproduce the pinned
# verdict-provenance record (testdata/golden_provenance.json) byte for
# byte. Regenerate with: go test -run TestGoldenProvenance -update .
provenance-check:
	$(GO) test -run '^TestGoldenProvenance$$' -count=1 .

# Full verification chain: build, vet, formatting, static analysis,
# tests (including the golden end-to-end pipeline), the benchmark module's
# own tests, the short race pass, the zero-alloc scan gate, coverage floors,
# the provenance golden, the serving-path and monitor smokes, and the fuzz
# smoke campaign.
verify: build vet fmt-check lint test bench-selftest race-short bench-check cover provenance-check serve-smoke monitor-smoke fuzz-smoke

# Regenerate every paper table and figure.
paperbench:
	$(GO) run ./cmd/paperbench | tee paperbench_output.txt

# End-to-end pipeline demo.
pipeline:
	$(GO) run ./cmd/squatphi -domains 4000 -phish 400

clean:
	rm -f test_output.txt bench_output.txt cover_output.txt
