package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Route attaches an extra handler to the debug mux — e.g. the verdict
// provenance endpoint from internal/obs/trace, which obs cannot import
// without a cycle.
type Route struct {
	Pattern string
	Handler http.Handler
}

// NewMux builds the debug handler tree:
//
//	/          index of routes
//	/metrics   JSON snapshot of the registry and the runtime samples
//	/debug/pprof/...  the standard Go profiler endpoints; /trace captures
//	                  the runtime/trace tasks and regions of the stages
//	/debug/vars       expvar (the runtime's own vars)
//
// plus any extra routes the caller mounts. reg may be nil; /metrics then
// serves an empty snapshot.
func NewMux(reg *Registry, extra ...Route) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "squatphi debug endpoint\n\n"+
			"/metrics      metrics registry snapshot (JSON)\n"+
			"/debug/pprof  Go profiler\n"+
			"/debug/vars   expvar\n")
		for _, rt := range extra {
			fmt.Fprintf(w, "%s\n", rt.Pattern)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	for _, rt := range extra {
		if rt.Pattern != "" && rt.Handler != nil {
			mux.Handle(rt.Pattern, rt.Handler)
		}
	}
	return mux
}

// Server timeout policy. The debug port used to run a zero-value
// http.Server: no header timeout (one slowloris connection per file
// descriptor holds the port forever) and no idle timeout (dead keep-alive
// conns accumulate). These bounds cover every repo listener — the debug
// endpoint and squatd's serving port reuse the same hardened server.
//
// WriteTimeout stays 0 deliberately: /debug/pprof/profile and /trace
// stream for a caller-chosen number of seconds, and a write deadline
// would sever them mid-profile. Handlers that need response deadlines
// bound themselves (squatd's verdict handlers are microsecond-scale).
const (
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request header before being dropped (the slowloris window).
	ReadHeaderTimeout = 5 * time.Second
	// ReadTimeout bounds reading one full request, header + body
	// (bulk verdict POSTs are bounded, profile GETs have no body).
	ReadTimeout = 30 * time.Second
	// IdleTimeout reaps keep-alive connections with no next request.
	IdleTimeout = 2 * time.Minute
	// ShutdownGrace is how long Close waits for in-flight requests
	// before severing their connections.
	ShutdownGrace = 5 * time.Second
)

// NewServer returns the repo's hardened http.Server for handler: header,
// read, and idle timeouts set, write timeout left to the handlers. Every
// listener in the repository (obs debug endpoint, squatd) goes through
// here so the timeout policy has one home.
func NewServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// DebugServer is a running debug endpoint.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the debug endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0"). Callers must Close (or Shutdown) it.
func Serve(addr string, reg *Registry, extra ...Route) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := NewServer(NewMux(reg, extra...))
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, bounded by ctx. It is the graceful half of the
// serving lifecycle; a cancelled ctx severs the stragglers.
func (d *DebugServer) Shutdown(ctx context.Context) error { return d.srv.Shutdown(ctx) }

// Close shuts the endpoint down gracefully with the default grace period
// (ShutdownGrace), then severs whatever is still in flight. The old
// behaviour — http.Server.Close, dropping in-flight requests on the floor
// — made every defer dbg.Close() a race against the last /metrics scrape.
func (d *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return d.srv.Close()
	}
	return nil
}
