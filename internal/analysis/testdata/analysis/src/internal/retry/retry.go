// Package retry is a transport-analyzer fixture mirroring the import path
// of the backoff-policy package (.../internal/retry): it schedules retries
// and owns no socket, so a raw dial here is flagged like anywhere else
// outside dnsx and faultx.
package retry

import "net"

// Probe dials directly, bypassing the transport seam.
func Probe(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) //want:transport
}
