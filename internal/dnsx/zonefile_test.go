package dnsx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

const sampleZone = `; squatting registrations observed 2018-04-01
$ORIGIN example.com.
$TTL 300
@	IN	A	93.184.216.34
www	600	IN	A	93.184.216.35
	IN	TXT	"v=spf1 -all; not a comment"
mail	IN	CNAME	www
ns1.provider.net.	IN	A	10.1.2.3
$ORIGIN squat.net.
paypal-login	IN	A	203.0.113.9
`

// zoneOf renders s's records as a master file of absolute A records.
func zoneOf(s *Store) *bytes.Buffer {
	var buf bytes.Buffer
	s.Range(func(r Record) bool {
		fmt.Fprintf(&buf, "%s.\t300\tIN\tA\t%s\n", r.Domain, r.IPString())
		return true
	})
	return &buf
}

func TestParseZone(t *testing.T) {
	recs, err := ParseZone(strings.NewReader(sampleZone), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("parsed %d records, want 6: %+v", len(recs), recs)
	}
	if recs[0].Name != "example.com" || recs[0].Type != TypeA || recs[0].Data != "93.184.216.34" || recs[0].TTL != 300 {
		t.Errorf("@ record = %+v", recs[0])
	}
	if recs[1].Name != "www.example.com" || recs[1].TTL != 600 {
		t.Errorf("www record = %+v", recs[1])
	}
	// Blank owner inherits "www".
	if recs[2].Name != "www.example.com" || recs[2].Type != TypeTXT || !strings.Contains(recs[2].Data, "not a comment") {
		t.Errorf("TXT continuation = %+v", recs[2])
	}
	if recs[3].Type != TypeCNAME || recs[3].Data != "www.example.com" {
		t.Errorf("CNAME = %+v", recs[3])
	}
	if recs[4].Name != "ns1.provider.net" {
		t.Errorf("absolute owner = %+v", recs[4])
	}
	if recs[5].Name != "paypal-login.squat.net" {
		t.Errorf("post-$ORIGIN record = %+v", recs[5])
	}
}

func TestParseZoneErrors(t *testing.T) {
	cases := []string{
		"$ORIGIN\n",
		"$TTL abc\n",
		"a.com. IN A 999.1.1.1\n",
		"a.com. IN BOGUS data\n",
		"a.com. IN A\n",
		"\tIN A 1.2.3.4\n", // continuation with no previous owner
	}
	for _, in := range cases {
		if _, err := ParseZone(strings.NewReader(in), ""); err == nil {
			t.Errorf("ParseZone(%q) succeeded, want error", in)
		}
	}
}

func TestStoreFromZoneAndBack(t *testing.T) {
	recs, err := ParseZone(strings.NewReader(sampleZone), "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := StoreFromZone(recs)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 4 { // four A records
		t.Fatalf("store len = %d, want 4", store.Len())
	}
	ip, ok := store.Lookup("paypal-login.squat.net")
	if !ok || ip != [4]byte{203, 0, 113, 9} {
		t.Fatalf("lookup = %v, %v", ip, ok)
	}
}

func TestZoneInteropWithSnapshotGenerator(t *testing.T) {
	// A generated snapshot must survive the zone format.
	s := GenerateSnapshot(SnapshotSpec{Planted: []string{"faceb00k.pw"}, NoiseRecords: 200, Seed: 4})
	recs, err := ParseZone(zoneOf(s), "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := StoreFromZone(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("zone interop lost records: %d != %d", got.Len(), s.Len())
	}
	if _, ok := got.Lookup("faceb00k.pw"); !ok {
		t.Fatal("planted domain lost")
	}
}

func BenchmarkParseZone(b *testing.B) {
	s := GenerateSnapshot(SnapshotSpec{NoiseRecords: 1000, Seed: 9})
	data := zoneOf(s).Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ParseZone(bytes.NewReader(data), "")
	}
}
