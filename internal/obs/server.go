package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Server is the embeddable live-observability endpoint the command-line
// tools expose behind their -serve flag. While a simulation or campaign is
// in flight it serves:
//
//	/metrics        current Snapshot in Prometheus text exposition
//	/snapshot.json  current Snapshot as JSON (same payload the tools write)
//	/runs           index of the on-disk run manifests in RunsDir
//	/live           server-sent-event stream of progress frames (Live)
//	/debug/pprof/   the standard net/http/pprof handlers
//
// The Snapshot and Live providers are called on every scrape and frame,
// so they must be safe to call concurrently with the run
// (Registry.Snapshot and a registry's gauges are).
type Server struct {
	cfg  ServerConfig
	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	// done is closed by Close and Shutdown; every /live stream ends on it.
	done      chan struct{}
	closeOnce sync.Once
}

// liveInterval is the period of a /live stream's frames after the one
// it writes at connect.
const liveInterval = 250 * time.Millisecond

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Snapshot provides the current metric state; nil serves empty
	// snapshots.
	Snapshot func() Snapshot
	// RunsDir is scanned for *.json run manifests by /runs. Empty means
	// the current directory.
	RunsDir string
	// Instrument, when non-nil, wraps every route (built-in and
	// Handle-registered, except /debug/pprof/*) with per-route RED
	// metrics in this registry: http.requests.<route>,
	// http.errors.<route>, http.request_duration_us.<route>.
	Instrument *Registry
	// Live, when set, is the source of /live's frames: each stream
	// calls it once at connect for its own frame function, then writes
	// that function's value as a "progress" event at connect and every
	// 250 ms. Nil streams no frames.
	Live func() func() any
}

// NewServer builds a server; call Start (own listener) or mount Handler.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Snapshot == nil {
		cfg.Snapshot = func() Snapshot { return Snapshot{} }
	}
	if cfg.RunsDir == "" {
		cfg.RunsDir = "."
	}
	s := &Server{cfg: cfg, done: make(chan struct{})}
	s.mux = http.NewServeMux()
	s.Handle("/", http.HandlerFunc(s.handleIndex))
	s.Handle("/metrics", http.HandlerFunc(s.handleMetrics))
	s.Handle("/snapshot.json", http.HandlerFunc(s.handleSnapshot))
	s.Handle("/runs", http.HandlerFunc(s.handleRuns))
	s.Handle("/live", http.HandlerFunc(s.handleLive))
	// pprof stays uninstrumented: profiling requests should not skew the
	// RED metrics they are used to investigate.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's route table for mounting in another server.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle registers an additional route on the server's mux — the hook the
// campaign service daemon uses to mount its job API next to /metrics and
// /live. Register before Start; the pattern syntax is net/http's
// (method-and-wildcard patterns included). With cfg.Instrument set the
// route is wrapped in RED metrics, labeled by its pattern — the wrap
// happens here, at registration time, because the stdlib in go.mod's
// declared version does not expose the matched pattern on the request.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, Instrument(s.cfg.Instrument, RouteLabel(pattern), h))
}

// HandleFunc is Handle for a plain handler function.
func (s *Server) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	s.Handle(pattern, http.HandlerFunc(h))
}

// Start listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, which differs from
// addr when port 0 asked the kernel to pick one.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.mux}
	go s.http.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Close
	return ln.Addr(), nil
}

// Close stops the listener immediately and ends every /live stream.
// In-flight non-streaming requests are aborted; use Shutdown for a
// graceful stop.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	if s.http != nil {
		return s.http.Close()
	}
	return nil
}

// Shutdown stops the server gracefully: it first ends every /live
// stream — without this the SSE handlers would never return and a
// graceful shutdown could never complete — then lets in-flight scrape
// requests finish, bounded by ctx. A /live request racing the shutdown
// returns at once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.done) })
	if s.http != nil {
		return s.http.Shutdown(ctx)
	}
	return nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "turnpike observability server")
	fmt.Fprintln(w, "  /metrics        Prometheus text exposition")
	fmt.Fprintln(w, "  /snapshot.json  metric snapshot as JSON")
	fmt.Fprintln(w, "  /runs           on-disk run manifest index")
	fmt.Fprintln(w, "  /live           SSE stream of progress samples")
	fmt.Fprintln(w, "  /debug/pprof/   Go runtime profiles")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	if err := s.cfg.Snapshot().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.cfg.Snapshot().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// RunInfo is one /runs index entry: the manifest header without its
// (potentially large) metric payload.
type RunInfo struct {
	File        string    `json:"file"`
	Tool        string    `json:"tool"`
	StartedAt   time.Time `json:"started_at"`
	WallSeconds float64   `json:"wall_seconds"`
	Workloads   []string  `json:"workloads,omitempty"`
	Seed        int64     `json:"seed,omitempty"`
	HasMetrics  bool      `json:"has_metrics"`
}

// IndexRuns scans dir for *.json files that parse as run manifests and
// returns them newest-first. Files that fail to parse (torn writes from
// pre-atomic tools, unrelated JSON) are skipped, not fatal.
func IndexRuns(dir string) ([]RunInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := make([]RunInfo, 0, len(paths))
	for _, p := range paths {
		m, err := ReadManifest(p)
		if err != nil || m.Tool == "" || m.StartedAt.IsZero() {
			continue
		}
		runs = append(runs, RunInfo{
			File:        filepath.Base(p),
			Tool:        m.Tool,
			StartedAt:   m.StartedAt,
			WallSeconds: m.WallSeconds,
			Workloads:   m.Workloads,
			Seed:        m.Seed,
			HasMetrics:  m.Metrics != nil,
		})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].StartedAt.After(runs[j].StartedAt) })
	return runs, nil
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs, err := IndexRuns(s.cfg.RunsDir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(runs) //nolint:errcheck — client gone is not actionable
}

// handleLive streams the Live provider's frames as server-sent events
// until the client disconnects or the server closes. Each frame is
//
//	event: progress\n
//	data: <json>\n\n
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": turnpike live stream\n\n")
	fl.Flush()

	var frame func() any
	if s.cfg.Live != nil {
		frame = s.cfg.Live()
	}
	tick := time.NewTicker(liveInterval)
	defer tick.Stop()
	for {
		if frame != nil {
			data, err := json.Marshal(frame())
			if err != nil {
				data = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
			}
			// SSE data must not contain raw newlines; compact JSON doesn't.
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-tick.C:
		}
	}
}
