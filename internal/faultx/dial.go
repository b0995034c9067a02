package faultx

import (
	"net"
	"time"
)

// DialTimeout is the sanctioned raw TCP/UDP dialer for client components
// outside the transport layer. The repository convention (enforced by
// squatvet's transport analyzer) forbids direct net.Dial* calls outside
// internal/dnsx and internal/faultx, so that every outbound connection is
// opened at a seam where chaos harnesses can interpose fault-injecting
// wrappers: components expose a Dial hook and fall back to this function
// when the hook is nil (see whois.Client).
func DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, addr, timeout)
}
