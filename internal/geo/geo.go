// Package geo implements the IP-geolocation substrate used to map phishing
// hosts to countries (paper §6.1, Figure 15: 1,021 resolvable phishing IPs
// across 53 countries, led by the US and Germany).
//
// Real geolocation databases are proprietary; this synthetic equivalent
// assigns each /16 prefix a country drawn from a distribution calibrated to
// the paper's figure. Assignment is deterministic: an IP always maps to the
// same country, and nearby addresses cluster like real allocations do.
package geo

// countryWeights approximates Figure 15 (counts out of 1,021), with a tail
// bucket spread over further country codes to reach 53 countries total.
var countryWeights = []struct {
	code   string
	weight int
}{
	{"US", 494}, {"DE", 106}, {"GB", 77}, {"FR", 44}, {"IE", 39},
	{"CA", 34}, {"JP", 32}, {"NL", 29}, {"CH", 13}, {"RU", 9},
	{"AU", 9}, {"SG", 9}, {"BR", 8}, {"IN", 8}, {"IT", 8},
	{"ES", 7}, {"SE", 7}, {"PL", 6}, {"CZ", 6}, {"DK", 5},
	{"FI", 5}, {"NO", 5}, {"AT", 4}, {"BE", 4}, {"PT", 4},
	{"RO", 4}, {"BG", 3}, {"UA", 3}, {"TR", 3}, {"HK", 3},
	{"KR", 3}, {"TW", 3}, {"CN", 3}, {"MX", 2}, {"AR", 2},
	{"CL", 2}, {"CO", 2}, {"ZA", 2}, {"EG", 1}, {"NG", 1},
	{"KE", 1}, {"IL", 1}, {"AE", 1}, {"SA", 1}, {"TH", 1},
	{"VN", 1}, {"ID", 1}, {"MY", 1}, {"PH", 1}, {"NZ", 1},
	{"GR", 1}, {"HU", 1}, {"SK", 1},
}

var totalWeight int

func init() {
	for _, cw := range countryWeights {
		totalWeight += cw.weight
	}
}

// Country returns the ISO country code hosting the given IPv4 address.
func Country(ip [4]byte) string {
	// Hash the /16 so whole prefixes land in one country, like real
	// allocations.
	h := uint64(14695981039346656037)
	h = (h ^ uint64(ip[0])) * 1099511628211
	h = (h ^ uint64(ip[1])) * 1099511628211
	x := int(h % uint64(totalWeight))
	for _, cw := range countryWeights {
		x -= cw.weight
		if x < 0 {
			return cw.code
		}
	}
	return countryWeights[0].code
}

// Histogram tallies countries for a set of IPs, a convenience for the
// Figure 15 experiment.
func Histogram(ips [][4]byte) map[string]int {
	out := map[string]int{}
	for _, ip := range ips {
		out[Country(ip)]++
	}
	return out
}
