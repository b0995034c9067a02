package analysis

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed set of accepted findings. Entries are keyed
// on (analyzer, path, message) with an occurrence count — line numbers
// are deliberately absent so unrelated edits do not invalidate the file —
// and every entry carries a '#' justification comment explaining why the
// finding is exempt rather than fixed. The workflow is burn-down: fix a
// finding, delete its entry (or run squatvet -write-baseline and review
// the diff); new findings never enter the baseline silently.
type Baseline struct {
	counts map[string]int
}

// baselineFieldSep separates the fields of one baseline entry line:
// count, analyzer, path, message.
const baselineFieldSep = "\t"

// ParseBaseline reads the baseline format: '#' comment lines and blank
// lines are ignored; every other line is count<TAB>analyzer<TAB>path<TAB>message.
func ParseBaseline(r io.Reader) (*Baseline, error) {
	b := &Baseline{counts: map[string]int{}}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		parts := strings.SplitN(line, baselineFieldSep, 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("baseline line %d: want count<TAB>analyzer<TAB>path<TAB>message, got %q", lineNo, line)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("baseline line %d: bad count %q", lineNo, parts[0])
		}
		key := parts[1] + "\t" + parts[2] + "\t" + parts[3]
		b.counts[key] += n
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// LoadBaselineFile reads a baseline file; a missing file yields an empty
// baseline (nothing exempt).
func LoadBaselineFile(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &Baseline{counts: map[string]int{}}, nil
		}
		return nil, err
	}
	defer f.Close()
	b, err := ParseBaseline(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Filter splits diags into fresh findings (not covered by the baseline)
// and reports stale baseline keys whose counted findings no longer all
// exist — a nudge to shrink the file. Stale entries outside inScope are
// suppressed: a partial run
// (squatvet ./internal/obs, or -analyzers errflow) produces no findings
// for other packages or other analyzers, so without scoping every entry
// for an unanalyzed file — or an analyzer that did not run — would be
// falsely reported as stale. nil means everything is in scope.
func (b *Baseline) Filter(diags []Diagnostic, inScope func(analyzer, path string) bool) (fresh []Diagnostic, stale []string) {
	remaining := make(map[string]int, len(b.counts))
	for k, v := range b.counts {
		remaining[k] = v
	}
	for _, d := range diags {
		if remaining[d.Key()] > 0 {
			remaining[d.Key()]--
			continue
		}
		fresh = append(fresh, d)
	}
	for k, v := range remaining {
		if v > 0 {
			parts := strings.SplitN(k, "\t", 3)
			if inScope != nil && !inScope(parts[0], parts[1]) {
				continue
			}
			stale = append(stale, fmt.Sprintf("%s: [%s] %s (%d unmatched)", parts[1], parts[0], parts[2], v))
		}
	}
	sort.Strings(stale)
	return fresh, stale
}

// WriteBaseline renders diags as a baseline file body, grouped and
// counted, with a placeholder justification comment per entry for the
// author to fill in.
func WriteBaseline(w io.Writer, diags []Diagnostic) error {
	counts := map[string]int{}
	var order []string
	for _, d := range diags {
		if counts[d.Key()] == 0 {
			order = append(order, d.Key())
		}
		counts[d.Key()]++
	}
	sort.Strings(order)
	if _, err := fmt.Fprintf(w, "# squatvet baseline — accepted findings, burned down incrementally.\n# format: count<TAB>analyzer<TAB>path<TAB>message\n# Every entry must carry a one-line justification comment.\n"); err != nil {
		return err
	}
	for _, key := range order {
		parts := strings.SplitN(key, "\t", 3)
		if _, err := fmt.Fprintf(w, "\n# TODO: justify this exemption.\n%d%s%s%s%s%s%s\n",
			counts[key], baselineFieldSep, parts[0], baselineFieldSep, parts[1], baselineFieldSep, parts[2]); err != nil {
			return err
		}
	}
	return nil
}
