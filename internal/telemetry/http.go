package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability mux for sink: the standard expvar
// and pprof surfaces plus the snapshot endpoints.
//
//	/debug/vars           expvar (the runtime's own vars)
//	/debug/pprof/...      runtime profiles
//	/telemetry            JSON Snapshot
//	/telemetry/table      plain-text tables
func Handler(sink *Sink) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A failed write means the client went away; nothing to report.
		_ = sink.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/telemetry/table", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		sink.Snapshot().WriteText(w)
	})
	return mux
}

// Serve starts the observability endpoint on addr (e.g. ":6060") in a
// background goroutine. The listen error is returned synchronously so a
// taken port fails fast; the returned server can be Closed to stop, and
// its Addr is the bound address (the port a ":0" addr was given).
func Serve(addr string, sink *Sink) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(sink)}
	go srv.Serve(ln)
	return srv, nil
}
