package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"squatphi/internal/obs"
)

// maxBulkBody bounds a bulk POST body; combined with obs.ReadTimeout it
// keeps one slow client from holding a handler goroutine indefinitely.
const maxBulkBody = 8 << 20

// Routes returns the coordinator's HTTP surface, mountable on the
// hardened obs listener (obs.Serve) so squatd's port shares the debug
// endpoint's timeout policy:
//
//	GET  /verdict?domain=D   one verdict (JSON)
//	POST /verdicts           JSON array of domains -> array of verdicts
//	POST /update             JSON array of {"domain","ip"} records
//	GET  /healthz            {"shards":N}, always 200 once serving
func (c *Coordinator) Routes() []obs.Route {
	return []obs.Route{
		{Pattern: "/verdict", Handler: http.HandlerFunc(c.handleVerdict)},
		{Pattern: "/verdicts", Handler: http.HandlerFunc(c.handleBulk)},
		{Pattern: "/update", Handler: http.HandlerFunc(c.handleUpdate)},
		{Pattern: "/healthz", Handler: http.HandlerFunc(c.handleHealthz)},
	}
}

func (c *Coordinator) handleVerdict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	d := r.URL.Query().Get("domain")
	if d == "" {
		http.Error(w, "missing ?domain=", http.StatusBadRequest)
		return
	}
	writeJSON(w, c.Lookup(d))
}

func (c *Coordinator) handleBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var domains []string
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBulkBody)).Decode(&domains); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, c.LookupBatch(domains))
}

// UpdateRecord is one streaming record update on the wire.
type UpdateRecord struct {
	Domain string `json:"domain"`
	IP     string `json:"ip"` // dotted quad
}

func (c *Coordinator) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var recs []UpdateRecord
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBulkBody)).Decode(&recs); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	out := make([]Verdict, 0, len(recs))
	for _, rec := range recs {
		ip, err := parseIPv4(rec.IP)
		if err != nil {
			http.Error(w, fmt.Sprintf("record %q: %v", rec.Domain, err), http.StatusBadRequest)
			return
		}
		out = append(out, c.Apply(rec.Domain, ip))
	}
	writeJSON(w, out)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Shards int `json:"shards"`
	}{len(c.shards)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// parseIPv4 parses a dotted-quad address without net.ParseIP (whose
// net.IP form would need a conversion back to the store's [4]byte).
func parseIPv4(s string) ([4]byte, error) {
	var ip [4]byte
	part, idx := 0, 0
	seen := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if !seen || idx > 3 {
				return ip, fmt.Errorf("bad IPv4 %q", s)
			}
			ip[idx] = byte(part)
			idx++
			part, seen = 0, false
			continue
		}
		ch := s[i]
		if ch < '0' || ch > '9' {
			return ip, fmt.Errorf("bad IPv4 %q", s)
		}
		part = part*10 + int(ch-'0')
		if part > 255 {
			return ip, fmt.Errorf("bad IPv4 %q", s)
		}
		seen = true
	}
	if idx != 4 {
		return ip, fmt.Errorf("bad IPv4 %q", s)
	}
	return ip, nil
}
