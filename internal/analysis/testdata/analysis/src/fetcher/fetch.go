// Package fetcher is a transport-analyzer fixture: a component outside
// the dnsx/faultx transport layer that dials and fetches directly.
// Every raw primitive must be flagged; going through an injected
// *http.Client must not.
package fetcher

import (
	"net"
	"net/http"
	"time"
)

// Bad exercises the forbidden primitives.
func Bad(addr string) {
	_, _ = net.Dial("udp", addr)                     //want:transport
	_, _ = net.DialTimeout("tcp", addr, time.Second) //want:transport
	_, _ = http.Get("http://" + addr)                //want:transport
	_, _ = http.Head("http://" + addr)               //want:transport
	_ = http.DefaultClient                           //want:transport
	d := net.Dialer{Timeout: time.Second}            //want:transport
	_ = d
}

// Good uses an injected client: the transport behind it is the chaos
// harness's to wrap.
func Good(c *http.Client, url string) (int, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}
