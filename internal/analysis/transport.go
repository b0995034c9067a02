package analysis

import (
	"go/ast"
)

// transportAllowed are the packages that form the transport seam: dnsx
// owns the DNS sockets, and faultx wraps conns and round-trippers with
// seeded fault injection. Only they may touch raw dial primitives; every
// other component — internal/retry included, which schedules backoff and
// dials nothing — must route through their wrappers so chaos harnesses
// can interpose in one place.
var transportAllowed = []string{"dnsx", "faultx"}

// netDialNames are the raw client-side primitives of package net.
var netDialNames = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialUDP": true, "DialTCP": true,
	"DialIP": true, "Dialer": true,
}

// listenerAllowed is the serving seam: internal/obs owns the repo's one
// hardened http.Server construction (obs.NewServer/obs.Serve — header,
// read and idle timeouts plus graceful drain), and every listener must
// be built through it. Before squatd, the debug port shipped a
// zero-value http.Server (no slowloris bound, no idle reaping, Close
// dropped in-flight requests); funnelling listeners through one seam is
// what keeps that class of bug fixed. The transport layer proper
// (dnsx/faultx, exempted above) still owns its own server
// sockets, e.g. the dnsx DNS server.
var listenerAllowed = []string{"obs"}

// netListenNames are the raw server-side socket primitives of package net.
var netListenNames = map[string]bool{
	"Listen": true, "ListenTCP": true, "ListenUDP": true, "ListenIP": true,
	"ListenPacket": true, "ListenConfig": true,
}

// httpListenerNames are the net/http server-construction forms that
// bypass the hardened obs server (and with it the timeout and graceful
// shutdown policy).
var httpListenerNames = map[string]bool{
	"Server": true, "ListenAndServe": true, "ListenAndServeTLS": true,
	"Serve": true, "ServeTLS": true,
}

// httpDirectNames are the net/http conveniences that bypass an injected
// client (and with it fault wrapping and retry accounting).
var httpDirectNames = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
	"DefaultClient": true,
}

// Transport enforces the PR 3 resilience invariant: all outbound I/O
// flows through the dnsx/faultx transport layer.
var Transport = &Analyzer{
	Name: "transport",
	Doc: "forbid direct net.Dial*/net.Dialer/http.DefaultClient/http.Get-style " +
		"calls outside internal/dnsx and internal/faultx " +
		"(crawler, prober and whois must use the wrapped clients so fault " +
		"injection and retry accounting see every outbound connection), and " +
		"forbid raw listeners (net.Listen*, http.Server, http.ListenAndServe*) " +
		"outside internal/obs, the hardened-listener seam carrying the " +
		"timeout and graceful-drain policy",
	Run: runTransport,
}

func runTransport(pass *Pass) error {
	for _, name := range transportAllowed {
		if pathHasInternal(pass.ImportPath, name) {
			return nil
		}
	}
	listenerOK := false
	for _, name := range listenerAllowed {
		if pathHasInternal(pass.ImportPath, name) {
			listenerOK = true
			break
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			pkgPath, name, sel, ok := qualifiedSel(pass.Info, n)
			if !ok {
				return true
			}
			if pass.InTestFile(sel.Pos()) {
				// Tests may open raw conns and listeners to drive the
				// servers they spin up; the invariant binds production
				// code paths.
				return true
			}
			switch pkgPath {
			case "net":
				if netDialNames[name] {
					pass.Reportf(sel.Pos(), "direct net.%s outside the transport layer; open connections through the dnsx/faultx wrappers (e.g. faultx.DialTimeout or a component Dial hook)", name)
				}
				if !listenerOK && netListenNames[name] {
					pass.Reportf(sel.Pos(), "listening socket net.%s outside the serving layer; bind through obs.Serve so every repo listener carries the hardened timeout and graceful-drain policy", name)
				}
			case "net/http":
				if httpDirectNames[name] {
					pass.Reportf(sel.Pos(), "direct net/http.%s outside the transport layer; use an injected *http.Client whose transport the chaos harness can wrap", name)
				}
				if !listenerOK && httpListenerNames[name] {
					pass.Reportf(sel.Pos(), "direct net/http.%s outside the serving layer; build servers with obs.NewServer/obs.Serve so header/read/idle timeouts and graceful shutdown apply", name)
				}
			}
			return true
		})
	}
	return nil
}
