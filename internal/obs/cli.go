package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLI bundles the observability flags the command-line tools share —
// -manifest (per-run JSON manifest), -metrics (metric snapshot JSON), and
// -serve (live observability server) — plus the finish/write sequence
// that used to be copy-pasted across cmd/experiments, cmd/faultcampaign,
// and cmd/trace. Register before flag.Parse; after the run, call
// WriteOutputs with the finished snapshot.
type CLI struct {
	tool     string
	manifest string
	metrics  string
	serve    string
	server   *Server
}

// RegisterCLI registers the shared observability flags on fs (typically
// flag.CommandLine) for the named tool.
func RegisterCLI(fs *flag.FlagSet, tool string) *CLI {
	c := &CLI{tool: tool}
	fs.StringVar(&c.manifest, "manifest", "",
		"write a per-run JSON manifest (config, wall times, metric snapshot) to this file")
	fs.StringVar(&c.metrics, "metrics", "",
		"write the run's metric snapshot JSON to this file")
	fs.StringVar(&c.serve, "serve", "",
		"serve live observability on this address while the run is in flight "+
			"(/metrics Prometheus, /snapshot.json, /runs, /live SSE, /debug/pprof), e.g. :9090")
	return c
}

// WantsOutput reports whether any file output flag is set.
func (c *CLI) WantsOutput() bool { return c.manifest != "" || c.metrics != "" }

// Serving reports whether -serve was requested.
func (c *CLI) Serving() bool { return c.serve != "" }

// NewManifest starts a manifest stamped with the tool name.
func (c *CLI) NewManifest() *Manifest { return NewManifest(c.tool) }

// StartServer starts the -serve server over the given snapshot and
// /live providers (ServerConfig), indexing run manifests from the
// current directory; it does nothing when -serve is unset. The bound
// address is announced on stderr so `-serve :0` is usable.
func (c *CLI) StartServer(snapshot func() Snapshot, live func() func() any) error {
	if c.serve == "" {
		return nil
	}
	srv := NewServer(ServerConfig{Snapshot: snapshot, Live: live})
	addr, err := srv.Start(c.serve)
	if err != nil {
		return err
	}
	c.server = srv
	fmt.Fprintf(os.Stderr, "%s: live observability on http://%s/ (metrics, snapshot.json, runs, live, debug/pprof)\n",
		c.tool, addr)
	return nil
}

// CloseServer shuts the -serve server down, if one was started.
func (c *CLI) CloseServer() {
	if c.server != nil {
		c.server.Close()
		c.server = nil
	}
}

// WriteOutputs writes the flagged output files: the -metrics snapshot
// JSON and the -manifest run manifest (finished with snap). Each write is
// announced on w (pass os.Stdout; nil silences).
func (c *CLI) WriteOutputs(man *Manifest, snap Snapshot, w io.Writer) error {
	if w == nil {
		w = io.Discard
	}
	if c.metrics != "" {
		if err := WriteSnapshotFile(c.metrics, snap); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics to %s\n", c.metrics)
	}
	if c.manifest != "" {
		man.Finish(snap)
		if err := man.WriteFile(c.manifest); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote run manifest to %s\n", c.manifest)
	}
	return nil
}

// WriteSnapshotFile writes the snapshot as indented JSON to path,
// atomically (temp file + rename), so a concurrent reader never sees a
// torn file.
func WriteSnapshotFile(path string, s Snapshot) error {
	return writeFileAtomic(path, func(w io.Writer) error { return s.WriteJSON(w) })
}
