package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// ServePprof starts an HTTP server on addr exposing net/http/pprof (CPU,
// heap, goroutine, block profiles) plus /telemetry, which serves the live
// registry snapshot as JSON, and /metrics, the same snapshot in the
// Prometheus/OpenMetrics text exposition format (any Prometheus-compatible
// scraper can watch a running campaign). It returns after the listener is
// bound, so a bad address fails fast instead of racing the workload; the
// server itself runs until the process exits. Intended for the CLIs'
// -pprof flag.
func ServePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: pprof listen: %w", err)
	}
	mux := newPprofMux()
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: pprof server: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "pprof + /telemetry + /metrics serving on http://%s/debug/pprof/\n", ln.Addr())
	return nil
}

// newPprofMux builds the diagnostic mux ServePprof serves; split out so
// tests can exercise the endpoints without a real listener.
func newPprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Active() may be nil (pprof without -telemetry): serve the empty
		// snapshot rather than erroring
		if err := Active().Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := Active().Snapshot().WriteOpenMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
