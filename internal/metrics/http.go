package metrics

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text format. A nil registry
// serves an empty (but valid) exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			// Headers are already out; nothing useful left to do.
			return
		}
	})
}

// NewMux builds the shared diagnostics mux every binary serves from one
// -metrics address: Prometheus exposition at /metrics, the same snapshot as
// JSON at /metrics.json, a liveness probe at /healthz, and the
// net/http/pprof handlers under /debug/pprof/.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the diagnostics server on addr in a new goroutine and returns
// immediately; serve errors (port in use, …) are reported through onErr when
// non-nil. It is the one-liner behind every binary's -metrics flag.
func Serve(addr string, r *Registry, onErr func(error)) {
	srv := &http.Server{Addr: addr, Handler: NewMux(r)}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed && onErr != nil {
			onErr(err)
		}
	}()
}
