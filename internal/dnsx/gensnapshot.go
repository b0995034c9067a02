package dnsx

import (
	"runtime"
	"sync"
	"sync/atomic"

	"squatphi/internal/domlm"
	"squatphi/internal/simrand"
)

// SnapshotSpec configures synthetic snapshot generation. The generator
// plays the role of the global DNS population that ActiveDNS sampled:
// planted domains (brand sites, squatting registrations from the web-world
// model) are mixed into a sea of unrelated background registrations.
type SnapshotSpec struct {
	// Planted domains are inserted verbatim (deduplicated against noise).
	Planted []string
	// NoiseRecords is the number of unrelated background domains.
	NoiseRecords int
	// BrandNoise, when non-nil, mixes in BrandNoiseRecords brand-adjacent
	// hard negatives: benign registrations sampled from the brand-language
	// model but accepted only below BrandNoiseMax, so they crowd the score
	// region just under the generated-squat promotion threshold without
	// crossing it. They stress the matcher+model precision measurement the
	// way organic brand-flavoured registrations do in a real zone file.
	BrandNoise *domlm.Model
	// BrandNoiseRecords is the number of brand-noise records (0 = none).
	BrandNoiseRecords int
	// BrandNoiseMax is the exclusive score ceiling for brand-noise labels;
	// <= 0 means domlm.DefaultThreshold - 0.02.
	BrandNoiseMax float64
	// Seed drives all randomness.
	Seed uint64
	// Workers is the generation parallelism (<= 0 means GOMAXPROCS). The
	// generated snapshot is identical for every Workers value: noise is
	// drawn from genStripes fixed sub-streams regardless of pool width.
	Workers int
	// Shards is the shard count of the generated store (<= 0 means
	// DefaultShards). Shard count never affects the store's contents or
	// iteration order; more shards buy finer-grained skipping for
	// longitudinal delta scans (internal/deltascan), at the price of a
	// wider K-way merge in serial Range.
	Shards int
}

// genStripes is the number of independent noise sub-streams. It is a fixed
// constant — not the worker count — so that a spec's output never depends
// on the machine or pool width that generated it.
const genStripes = 64

// noiseTLDs weights the TLD mix of background registrations.
var noiseTLDs = []string{
	"com", "com", "com", "com", "net", "net", "org", "org",
	"info", "de", "cn", "uk", "ru", "nl", "io", "co", "biz", "xyz",
}

// noiseWords seeds plausible multi-part background domains so the noise is
// not pure gibberish (real zone files contain dictionary compounds that can
// collide with combo rules; the matcher must not fire on them).
var noiseWords = []string{
	"cloud", "shop", "blue", "media", "tech", "data", "home", "world",
	"solutions", "digital", "group", "labs", "consulting", "travel",
	"garden", "photo", "design", "market", "fresh", "smart", "global",
	"river", "stone", "craft", "studio", "prime", "rapid", "nova",
}

// GenerateSnapshot builds a Store per spec. Generation is deterministic for
// a given spec (including across Workers values and shard layouts): every
// record carries a spec-defined sequence number, so insertion order and
// collision resolution match the serial semantics exactly. IPs are drawn
// uniformly from non-reserved space.
func GenerateSnapshot(spec SnapshotSpec) *Store {
	base := simrand.New(spec.Seed).Split("dns-snapshot")
	s := newSizedStore(spec.Shards, len(spec.Planted)+spec.brandNoiseCount()+spec.NoiseRecords)

	// Planted domains occupy sequence numbers [0, len(Planted)): they come
	// first in insertion order, exactly as the serial generator inserted
	// them. The planted set is small relative to the noise, so it is added
	// on the calling goroutine from its own sub-stream.
	plantedRNG := base.Split("planted")
	for i, d := range spec.Planted {
		s.addAt(uint64(i), Normalize(d), RandomIP(plantedRNG))
	}

	// Brand-noise hard negatives sit between the planted set and the bulk
	// noise in sequence order. Like the planted set they are generated on
	// the calling goroutine from their own sub-stream: the population is
	// small, and rejection sampling consumes a data-dependent number of
	// draws that striping could not keep worker-invariant.
	bnRNG := base.Split("brandnoise")
	bnCount := spec.brandNoiseCount()
	bnMax := spec.brandNoiseMax()
	for i := 0; i < bnCount; i++ {
		s.addAt(uint64(len(spec.Planted)+i), brandNoiseDomain(bnRNG, spec.BrandNoise, bnMax), RandomIP(bnRNG))
	}

	// Noise records are striped into genStripes fixed sub-streams; workers
	// claim whole stripes. Record i keeps global sequence number
	// len(Planted)+brandNoise+i whichever worker generates it.
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > genStripes {
		workers = genStripes
	}
	noiseRNG := base.Split("noise")
	plantedCount := len(spec.Planted) + bnCount
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := int(next.Add(1)) - 1
				if g >= genStripes {
					return
				}
				r := noiseRNG.SplitN(uint64(g))
				start := g * spec.NoiseRecords / genStripes
				end := (g + 1) * spec.NoiseRecords / genStripes
				for i := start; i < end; i++ {
					s.addAt(uint64(plantedCount+i), noiseDomain(r), RandomIP(r))
				}
			}
		}()
	}
	wg.Wait()

	// The reservation counted every draw, but names repeat (two in five of
	// 200K noise draws): give the spare back, and sort each shard now
	// rather than on its first walk.
	for i := range s.shards {
		s.shards[i].fit()
	}

	// Subsequent public Adds continue after the generated range.
	s.seq.Store(uint64(plantedCount + spec.NoiseRecords))
	return s
}

// StreamSnapshot delivers the exact record population GenerateSnapshot
// would build — same spec, same RNG sub-streams, same order (planted
// first, then the noise stripes in stripe order) — to fn, one record at a
// time, without materialising a Store. It exists for scan-scale snapshot
// writing (internal/snapfmt), where holding hundreds of millions of
// records as an in-memory Store is the thing being avoided.
//
// Unlike the Store path, nothing deduplicates here: a domain the noise
// streams mint twice is delivered twice (a Store built from this stream
// by Add collapses them, reproducing GenerateSnapshot exactly). Domains
// are already normalised. fn is called on the calling goroutine;
// returning false stops the stream.
func StreamSnapshot(spec SnapshotSpec, fn func(domain string, ip [4]byte) bool) {
	base := simrand.New(spec.Seed).Split("dns-snapshot")
	plantedRNG := base.Split("planted")
	for _, d := range spec.Planted {
		if !fn(Normalize(d), RandomIP(plantedRNG)) {
			return
		}
	}
	bnRNG := base.Split("brandnoise")
	bnMax := spec.brandNoiseMax()
	for i := 0; i < spec.brandNoiseCount(); i++ {
		if !fn(brandNoiseDomain(bnRNG, spec.BrandNoise, bnMax), RandomIP(bnRNG)) {
			return
		}
	}
	noiseRNG := base.Split("noise")
	for g := 0; g < genStripes; g++ {
		r := noiseRNG.SplitN(uint64(g))
		start := g * spec.NoiseRecords / genStripes
		end := (g + 1) * spec.NoiseRecords / genStripes
		for i := start; i < end; i++ {
			if !fn(noiseDomain(r), RandomIP(r)) {
				return
			}
		}
	}
}

// brandNoiseCount returns the effective brand-noise population size.
func (spec SnapshotSpec) brandNoiseCount() int {
	if spec.BrandNoise == nil || spec.BrandNoiseRecords <= 0 {
		return 0
	}
	return spec.BrandNoiseRecords
}

// brandNoiseMax returns the effective brand-noise score ceiling.
func (spec SnapshotSpec) brandNoiseMax() float64 {
	if spec.BrandNoiseMax > 0 {
		return spec.BrandNoiseMax
	}
	return domlm.DefaultThreshold - 0.02
}

// brandNoiseDomain mints one brand-adjacent hard negative: a model sample
// that scores below max. Rejection is bounded — a model whose every
// sample clears max (tiny training sets) falls back to ordinary noise
// rather than looping.
func brandNoiseDomain(r *simrand.RNG, m *domlm.Model, max float64) string {
	for try := 0; try < 64; try++ {
		label := m.SampleLabel(r)
		if m.ScoreLabel(label) >= max {
			continue
		}
		return label + "." + simrand.Pick(r, noiseTLDs)
	}
	return noiseDomain(r)
}

// noiseDomain mints one background domain name (already normalised:
// lowercase, no trailing dot).
func noiseDomain(r *simrand.RNG) string {
	tld := simrand.Pick(r, noiseTLDs)
	switch r.Intn(4) {
	case 0: // random letters
		return r.Letters(4+r.Intn(10)) + "." + tld
	case 1: // word + letters
		return simrand.Pick(r, noiseWords) + r.Letters(2+r.Intn(5)) + "." + tld
	case 2: // word-word compound with hyphen
		return simrand.Pick(r, noiseWords) + "-" + simrand.Pick(r, noiseWords) + "." + tld
	default: // two words concatenated
		return simrand.Pick(r, noiseWords) + simrand.Pick(r, noiseWords) + "." + tld
	}
}

// RandomIP draws a plausible public IPv4 address (avoids 0/8, 10/8,
// 127/8, 169.254/16, 172.16/12, 192.168/16, 224/4 and above).
func RandomIP(r *simrand.RNG) [4]byte {
	for {
		ip := [4]byte{byte(1 + r.Intn(222)), byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))}
		switch {
		case ip[0] == 10 || ip[0] == 127:
			continue
		case ip[0] == 172 && ip[1] >= 16 && ip[1] < 32:
			continue
		case ip[0] == 192 && ip[1] == 168:
			continue
		case ip[0] == 169 && ip[1] == 254:
			continue
		}
		return ip
	}
}
