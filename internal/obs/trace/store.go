package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"squatphi/internal/fsx"
)

// The trace store is gzip-compressed JSONL keyed by domain: a header
// line, then the head-sampled scan marks, then the full evidence
// records, both sorted by domain: streamed lines, a versioned header, and
// a corrupt line is a hard error. It stays text on purpose — people read
// it with zcat and jq, and no measured path crosses it — while the
// deltascan spill, which a restart does wait for, is binary
// (internal/recfile).

// storeVersion versions the container layout; SchemaVersion (inside each
// record) versions the evidence schema.
const storeVersion = 1

// storeHeader is the first line of a trace store.
type storeHeader struct {
	Kind        string `json:"kind"` // "trace_store"
	Version     int    `json:"version"`
	Schema      int    `json:"schema"`
	SampleEvery int    `json:"sample_every,omitempty"`
	Marks       int    `json:"marks"`
	Records     int    `json:"records"`
}

// storeLine is one body line: exactly one of Mark or Record is set.
type storeLine struct {
	Mark   *ScanMark `json:"mark,omitempty"`
	Record *Record   `json:"record,omitempty"`
}

// Store is the decoded content of a trace store file.
type Store struct {
	// SampleEvery is the head-sampling period the run used (0 = disabled).
	SampleEvery int
	// Marks are the head-sampled scan marks, sorted by domain.
	Marks []ScanMark
	// Records are the full evidence records, sorted by domain.
	Records []*Record
}

// Lookup returns the record for a domain, if stored.
func (s *Store) Lookup(domain string) (*Record, bool) {
	if s == nil {
		return nil, false
	}
	for _, rec := range s.Records {
		if rec.Domain == domain {
			return rec, true
		}
	}
	return nil, false
}

// WriteStore persists the collector's provenance to w as gzip+JSONL.
func (c *Collector) WriteStore(w io.Writer) error {
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)

	marks := c.ScanMarks()
	records := c.Records()
	sampleEvery := 0
	if c != nil {
		sampleEvery = int(c.sampleEvery)
	}
	if err := enc.Encode(storeHeader{
		Kind:        "trace_store",
		Version:     storeVersion,
		Schema:      SchemaVersion,
		SampleEvery: sampleEvery,
		Marks:       len(marks),
		Records:     len(records),
	}); err != nil {
		return err
	}
	for i := range marks {
		if err := enc.Encode(storeLine{Mark: &marks[i]}); err != nil {
			return err
		}
	}
	for _, rec := range records {
		if err := enc.Encode(storeLine{Record: rec}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// WriteStoreFile writes the trace store to path atomically (temp file +
// fsync + rename, internal/fsx): ReadStore treats truncation as a hard
// error, so a crash mid-write must leave the previous store intact rather
// than a torn gzip a later squatexplain run would refuse to open.
func (c *Collector) WriteStoreFile(path string) error {
	return fsx.WriteFile(path, c.WriteStore)
}

// ReadStore decodes a trace store written by WriteStore. Unknown
// versions and malformed lines are hard errors — a provenance trail that
// silently drops evidence is worse than none.
func ReadStore(r io.Reader) (*Store, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace store: %w", err)
	}
	defer zr.Close()
	dec := json.NewDecoder(bufio.NewReader(zr))

	var hdr storeHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace store header: %w", err)
	}
	if hdr.Kind != "trace_store" || hdr.Version != storeVersion {
		return nil, fmt.Errorf("trace store: unsupported kind %q version %d", hdr.Kind, hdr.Version)
	}
	st := &Store{
		SampleEvery: hdr.SampleEvery,
		Marks:       make([]ScanMark, 0, hdr.Marks),
		Records:     make([]*Record, 0, hdr.Records),
	}
	for {
		var line storeLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace store line: %w", err)
		}
		switch {
		case line.Mark != nil:
			st.Marks = append(st.Marks, *line.Mark)
		case line.Record != nil:
			st.Records = append(st.Records, line.Record)
		default:
			return nil, fmt.Errorf("trace store: line is neither mark nor record")
		}
	}
	if len(st.Marks) != hdr.Marks || len(st.Records) != hdr.Records {
		return nil, fmt.Errorf("trace store: truncated (%d/%d marks, %d/%d records)",
			len(st.Marks), hdr.Marks, len(st.Records), hdr.Records)
	}
	return st, nil
}

// ReadStoreFile reads a trace store from path.
func ReadStoreFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStore(f)
}
