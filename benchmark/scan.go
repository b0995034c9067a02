package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/dnsx"
	"squatphi/internal/domlm"
	"squatphi/internal/snapfmt"
	"squatphi/internal/squat"
)

// Frozen sizes of the two scan workloads. The issue sized them at 8M and
// 4M records; the acceptance driver's time cap (about 30 s a run, set-up
// three times over included) leaves room for half that.
const (
	scanZoneRecords   = 4_000_000
	scanZoneLMRecords = 2_000_000
)

// scanWorkload is scan-zone (lm false) and scan-zone-lm (lm true): a
// snapfmt file scanned in place, pass after pass, by core.ScanSnapshot at
// rc.workers.
type scanWorkload struct {
	lm bool

	matcher  *squat.Matcher
	model    *domlm.Model
	brands   []squat.Brand
	expected []string // planted domains the string-path matcher accepts
	planted  map[string]struct{}
	path     string
	snap     *snapfmt.Snapshot
	sha      string
	sizes    map[string]int64
	ref      []squat.Candidate // serial scan: the oracle of every pass

	buildMS, trainMS float64
}

func (w *scanWorkload) setup(rc *runCtx) error {
	u := universe()
	w.brands = u.SquatBrands()
	w.buildMS = ms(rc.timed("squat.NewMatcher", func() { w.matcher = squat.NewMatcher(w.brands) }))

	var spec dnsx.SnapshotSpec
	if w.lm {
		w.trainMS = ms(rc.timed("domlm.Train", func() { w.model = domlm.Train(u.Names(), domlm.DefaultConfig()) }))
		w.matcher.AttachLM(w.model, 0)
		spec = hardMixSpec(u, w.matcher, w.model, scanZoneLMRecords, rc.seed)
	} else {
		spec = zoneSpec(w.brands, scanZoneRecords, rc.seed)
	}
	w.expected = matching(w.matcher, spec.Planted)
	w.planted = make(map[string]struct{}, len(spec.Planted))
	for _, d := range spec.Planted {
		w.planted[dnsx.Normalize(d)] = struct{}{}
	}

	sw := snapfmt.NewWriter(0)
	rc.timed("dnsx.StreamSnapshot", func() {
		dnsx.StreamSnapshot(spec, func(domain string, ip [4]byte) bool {
			sw.Add(domain, ip)
			return true
		})
	})
	w.path = filepath.Join(rc.dir, "zone.snap")
	var werr error
	rc.timed("snapfmt.WriteTo", func() { werr = writeSnapshot(w.path, sw) })
	if werr != nil {
		return werr
	}
	var oerr error
	rc.timed("snapfmt.Open", func() { w.snap, oerr = snapfmt.Open(w.path) })
	if oerr != nil {
		return oerr
	}
	w.sizes = map[string]int64{
		"records":       int64(w.snap.Len()),
		"planted":       int64(len(spec.Planted)),
		"planted_match": int64(len(w.expected)),
		"brand_noise":   int64(spec.BrandNoiseRecords),
		"noise":         int64(spec.NoiseRecords),
		"brands":        int64(len(w.brands)),
		"segments":      int64(w.snap.NumShards()),
	}
	w.ref, w.sha = nil, ""
	return nil
}

func writeSnapshot(path string, sw *snapfmt.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := sw.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *scanWorkload) teardown(rc *runCtx) {
	if w.snap != nil {
		w.snap.Close()
		w.snap = nil
	}
	if w.path != "" {
		os.Remove(w.path)
	}
}

func (w *scanWorkload) describe() (string, map[string]int64) {
	if w.sha == "" && w.path != "" {
		if f, err := os.Open(w.path); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				w.sha = hex.EncodeToString(h.Sum(nil))
			}
			f.Close()
		}
	}
	return w.sha, w.sizes
}

func (w *scanWorkload) fingerprints() (uint64, uint64) {
	if w.model != nil {
		return w.matcher.Fingerprint(), w.model.Fingerprint()
	}
	return w.matcher.Fingerprint(), 0
}

// reference scans serially once: the oracle every parallel pass must
// equal. It also proves the planted squats are all found.
func (w *scanWorkload) reference() (missing int, err error) {
	if w.ref == nil {
		w.ref, err = core.ScanSnapshot(w.snap, w.matcher, 1, nil)
		if err != nil {
			return 0, err
		}
	}
	found := make(map[string]struct{}, len(w.ref))
	for _, c := range w.ref {
		found[c.Domain] = struct{}{}
	}
	for _, d := range w.expected {
		if _, ok := found[dnsx.Normalize(d)]; !ok {
			missing++
		}
	}
	return missing, nil
}

func (w *scanWorkload) measure(rc *runCtx, d time.Duration) (*measured, error) {
	missing, err := w.reference()
	if err != nil {
		return nil, err
	}
	m := &measured{attempted: 1, counts: map[string]int64{
		"candidates":      int64(len(w.ref)),
		"planted_missing": int64(missing),
	}}
	if missing > 0 {
		m.failed++
	}
	records := float64(w.snap.Len())
	start := time.Now()
	for {
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		var cands []squat.Candidate
		var serr error
		dt := rc.timed("core.ScanSnapshot", func() { cands, serr = core.ScanSnapshot(w.snap, w.matcher, rc.workers, nil) })
		if serr != nil {
			return nil, serr
		}
		m.opUS = append(m.opUS, us(dt))
		m.attempted++
		if !reflect.DeepEqual(cands, w.ref) {
			m.failed++
		}
		if time.Since(start) >= d {
			break
		}
		// Untimed: every pass starts from a collected heap, so peak RSS
		// does not depend on where the last pass left the collector.
		runtime.GC()
	}
	m.throughput, m.throughputN = records/(median(m.opUS)/1e6), len(m.opUS)
	m.layer = map[string]float64{"core.scan_mrec_per_s": m.throughput / 1e6}
	return m, nil
}

// Record classes of the probe, by what the generator planted.
const (
	classMiss = iota // noise and near-threshold negatives
	classHit         // planted ASCII squats
	classIDN         // xn-- labels, matching or not
	numClasses
)

// arena is the snapshot's domains copied out flat, in segment order, so
// MatchBytes can be timed without snapfmt underneath it.
type arena struct {
	data   []byte
	off    []uint32 // record i is data[off[i]:off[i+1]]
	class  []uint8
	segEnd []int // records of segment s are [segEnd[s-1], segEnd[s])
}

func (a *arena) rec(i int) []byte { return a.data[a.off[i]:a.off[i+1]] }

func (w *scanWorkload) buildArena() (*arena, error) {
	a := &arena{off: []uint32{0}}
	xn := []byte("xn--")
	for seg := 0; seg < w.snap.NumShards(); seg++ {
		err := w.snap.VisitShardDomains(seg, func(d []byte) bool {
			a.data = append(a.data, d...)
			a.off = append(a.off, uint32(len(a.data)))
			c := uint8(classMiss)
			if bytes.Contains(d, xn) {
				c = classIDN
			} else if _, ok := w.planted[string(d)]; ok {
				c = classHit
			}
			a.class = append(a.class, c)
			return true
		})
		if err != nil {
			return nil, err
		}
		a.segEnd = append(a.segEnd, len(a.class))
	}
	return a, nil
}

const probeReps = 3

func (w *scanWorkload) probe(rc *runCtx, base *measured, out map[string]float64) error {
	n := float64(w.snap.Len())
	nSegs := w.snap.NumShards()
	out["squat.build_ms"] = w.buildMS
	out["domlm.train_ms"] = w.trainMS

	// core, first: the serial scan, while the heap is as the measured phase
	// left it (the arena below adds a hundred megabytes).
	var serial []float64
	for rep := 0; rep < probeReps; rep++ {
		var err error
		serial = append(serial, float64(rc.timed("core.ScanSnapshot.serial", func() {
			_, err = core.ScanSnapshot(w.snap, w.matcher, 1, nil)
		}).Nanoseconds()))
		if err != nil {
			return err
		}
	}

	// snapfmt: open, iterate, verify, bytes on disk.
	var opens []float64
	for i := 0; i < 9; i++ {
		var s *snapfmt.Snapshot
		var err error
		opens = append(opens, us(rc.timed("snapfmt.Open", func() { s, err = snapfmt.Open(w.path) })))
		if err != nil {
			return err
		}
		s.Close()
	}
	out["snapfmt.open_us"] = median(opens)
	if fi, err := os.Stat(w.path); err == nil {
		out["snapfmt.bytes_per_rec"] = float64(fi.Size()) / n
	}
	var verr error
	out["snapfmt.verify_ms"] = ms(rc.timed("snapfmt.VerifyShard", func() {
		for seg := 0; seg < nSegs && verr == nil; seg++ {
			verr = w.snap.VerifyShard(seg)
		}
	}))
	if verr != nil {
		return verr
	}

	segNS := make([]float64, nSegs) // visit + match time of each segment, summed over reps
	var visitTotals []float64
	for rep := 0; rep < probeReps; rep++ {
		total := 0.0
		for seg := 0; seg < nSegs; seg++ {
			var err error
			dt := rc.timed("snapfmt.VisitShardDomains", func() {
				err = w.snap.VisitShardDomains(seg, func([]byte) bool { return true })
			})
			if err != nil {
				return err
			}
			segNS[seg] += float64(dt.Nanoseconds())
			total += float64(dt.Nanoseconds())
		}
		visitTotals = append(visitTotals, total)
	}
	visitNS := median(visitTotals) / n
	out["snapfmt.visit_ns_per_rec"] = visitNS

	// squat: the same records from a flat arena, whole and by class.
	a, err := w.buildArena()
	if err != nil {
		return err
	}
	matchAll := func(m *squat.Matcher, name string, perSeg []float64) (nsPerRec float64, hits int64) {
		var totals []float64
		for rep := 0; rep < probeReps; rep++ {
			var sc squat.Scratch
			total, lo := 0.0, 0
			hits = 0
			for seg, hi := range a.segEnd {
				dt := rc.timed(name, func() {
					for i := lo; i < hi; i++ {
						if _, ok := m.MatchBytes(a.rec(i), &sc); ok {
							hits++
						}
					}
				})
				if perSeg != nil {
					perSeg[seg] += float64(dt.Nanoseconds())
				}
				total += float64(dt.Nanoseconds())
				lo = hi
			}
			totals = append(totals, total)
		}
		return median(totals) / n, hits
	}
	matchNS, hits := matchAll(w.matcher, "squat.MatchBytes", segNS)
	out["squat.match_ns_per_rec"] = matchNS
	out["squat.hit_ratio"] = float64(hits) / n

	var sc squat.Scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range a.class {
		w.matcher.MatchBytes(a.rec(i), &sc)
	}
	runtime.ReadMemStats(&after)
	out["squat.allocs_per_rec"] = float64(after.Mallocs-before.Mallocs) / n

	byClass := make([][]int, numClasses)
	for i, c := range a.class {
		byClass[c] = append(byClass[c], i)
	}
	for c, name := range map[int]string{classMiss: "squat.match_miss_ns", classHit: "squat.match_hit_ns", classIDN: "squat.match_idn_ns"} {
		idx := byClass[c]
		if len(idx) == 0 {
			continue
		}
		// Small classes are looped until the timing spans at least 100 ms.
		calls, start := 0, time.Now()
		for time.Since(start) < 100*time.Millisecond {
			for _, i := range idx {
				w.matcher.MatchBytes(a.rec(i), &sc)
			}
			calls += len(idx)
		}
		out[name] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}

	// domlm: the gate alone over the miss class's labels, and what
	// attaching it costs the matcher on identical records.
	if w.lm {
		var ls domlm.Scratch
		labels := 0
		dt := rc.timed("domlm.ScoreLabelBytes", func() {
			for _, i := range byClass[classMiss] {
				d := a.rec(i)
				if dot := bytes.IndexByte(d, '.'); dot > 0 {
					w.model.ScoreLabelBytes(d[:dot], &ls)
					labels++
				}
			}
		})
		if labels > 0 {
			out["domlm.score_ns_per_label"] = float64(dt.Nanoseconds()) / float64(labels)
		}
		plain := squat.NewMatcher(w.brands)
		plainNS, _ := matchAll(plain, "squat.MatchBytes.nolm", nil)
		out["squat.lm_delta_ns_per_rec"] = matchNS - plainNS
	}

	// core: the serial scan against its parts, and how the parallel one
	// scales and balances.
	serialNS := median(serial) / n
	serialRate := 1e9 / serialNS
	out["core.scan_serial_mrec_per_s"] = serialRate / 1e6
	out["core.residual_ns_per_rec"] = serialNS - visitNS - matchNS
	out["core.parallel_efficiency"] = base.throughput / (float64(rc.workers) * serialRate)
	maxSeg := 0.0
	for _, v := range segNS {
		if v > maxSeg {
			maxSeg = v
		}
	}
	if mean := sum(segNS) / float64(nSegs); mean > 0 {
		out["core.segment_skew"] = maxSeg / mean
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
