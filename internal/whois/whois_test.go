package whois

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// Lookup queries a whois server for one domain with default client
// settings (5s attempt deadline, one retry).
func Lookup(addr, domain string) (Record, error) {
	var c Client
	return c.Lookup(context.Background(), addr, domain)
}

type mapDir map[string]Record

func (m mapDir) WhoisRecord(domain string) (Record, bool) {
	r, ok := m[domain]
	return r, ok
}

func TestFormatParseRoundTrip(t *testing.T) {
	recs := []Record{
		{Domain: "mobile-adp.com", Created: 2017, Registrar: "godaddy.com"},
		{Domain: "faceb00k.pw", Created: 2018, Registrar: ""},
	}
	for _, rec := range recs {
		got, err := Parse(Format(rec))
		if err != nil {
			t.Fatalf("Parse(Format(%+v)): %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip %+v != %+v", got, rec)
		}
	}
}

func TestParseNoMatch(t *testing.T) {
	if _, err := Parse("gibberish text\nwith no fields\n"); err != ErrNoMatch {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
}

func TestParseToleratesExtraFields(t *testing.T) {
	text := "Domain Name: EXAMPLE.COM\nRegistry Domain ID: 123\nCreation Date: 2016-05-04T00:00:00Z\nRegistrar: namecheap.com\nDNSSEC: unsigned\n"
	rec, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "example.com" || rec.Created != 2016 || rec.Registrar != "namecheap.com" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestServerLookup(t *testing.T) {
	dir := mapDir{
		"mobile-adp.com": {Domain: "mobile-adp.com", Created: 2017, Registrar: "godaddy.com"},
		"redacted.net":   {Domain: "redacted.net", Created: 2015},
	}
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec, err := Lookup(srv.Addr(), "MOBILE-ADP.COM")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "godaddy.com" || rec.Created != 2017 {
		t.Fatalf("rec = %+v", rec)
	}

	rec, err = Lookup(srv.Addr(), "redacted.net")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "" {
		t.Fatalf("redacted registrar leaked: %+v", rec)
	}

	if _, err := Lookup(srv.Addr(), "missing.example"); err != ErrNoMatch {
		t.Fatalf("missing domain err = %v, want ErrNoMatch", err)
	}
}

func TestServerConcurrentLookups(t *testing.T) {
	dir := mapDir{}
	for _, d := range []string{"a.com", "b.com", "c.com", "d.com"} {
		dir[d] = Record{Domain: d, Created: 2018, Registrar: "godaddy.com"}
	}
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := []string{"a.com", "b.com", "c.com", "d.com"}[i%4]
			rec, err := Lookup(srv.Addr(), d)
			if err != nil {
				errs <- err
				return
			}
			if rec.Domain != d {
				errs <- ErrNoMatch
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFormatRedactsEmptyRegistrar(t *testing.T) {
	text := Format(Record{Domain: "x.com", Created: 2018})
	if strings.Contains(text, "Registrar:") {
		t.Fatal("empty registrar emitted")
	}
}
