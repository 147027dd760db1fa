package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"

	"efficsense/internal/dsp"
)

// NewOpsHandler builds the handler for the private operations listener
// (-ops-addr). It exposes the Go profiling and introspection endpoints
// that must never face the public API:
//
//	/debug/pprof/     runtime profiles (net/http/pprof)
//	/debug/vars       expvar JSON (memstats, cmdline)
//	/debug/build      module, VCS, toolchain and kernel-tier info as JSON
//
// The handler is self-contained: importing net/http/pprof registers its
// handlers on http.DefaultServeMux as a side effect, but the public API
// server uses its own mux, so nothing here leaks onto the public
// listener. Mount this handler only on a loopback or otherwise
// access-controlled address.
func NewOpsHandler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/build", handleBuildInfo)

	// A tiny index so operators hitting the root see what is here.
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "efficsensed ops listener\n\n"+
			"/debug/pprof/   runtime profiles\n"+
			"/debug/vars     expvar JSON\n"+
			"/debug/build    build info JSON\n")
	})

	return mux
}

// buildInfoJSON is the /debug/build response shape.
type buildInfoJSON struct {
	GoVersion string            `json:"go_version"`
	Path      string            `json:"path,omitempty"`
	Module    string            `json:"module,omitempty"`
	Version   string            `json:"version,omitempty"`
	Settings  map[string]string `json:"settings,omitempty"`
	NumCPU    int               `json:"num_cpu"`
	// Kernels names the dsp vector kernels in use ("avx512", "avx" or
	// "go"): results never depend on it, throughput does.
	Kernels string `json:"kernels"`
}

func handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	out := buildInfoJSON{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Kernels:   dsp.Kernels(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.Path = bi.Path
		out.Module = bi.Main.Path
		out.Version = bi.Main.Version
		out.Settings = make(map[string]string, len(bi.Settings))
		for _, s := range bi.Settings {
			out.Settings[s.Key] = s.Value
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // best-effort diagnostics endpoint
}
