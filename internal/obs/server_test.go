package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func startTestServer(t *testing.T, cfg ServerConfig) string {
	t.Helper()
	srv := NewServer(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + addr.String()
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim.insts").Add(42)
	reg.Gauge("live.sb_occupancy").Set(2)
	reg.Histogram("sim.recovery_cycles", []uint64{10, 100}).Observe(33)
	base := startTestServer(t, ServerConfig{Snapshot: reg.Snapshot})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, string(body))
	if fams["sim_insts_total"].samples[""] != 42 {
		t.Errorf("sim_insts_total = %+v", fams["sim_insts_total"])
	}
	if fams["live_sb_occupancy"].samples[""] != 2 {
		t.Errorf("live_sb_occupancy = %+v", fams["live_sb_occupancy"])
	}
	if fams["sim_recovery_cycles"].count != 1 || fams["sim_recovery_cycles"].sum != 33 {
		t.Errorf("sim_recovery_cycles = %+v", fams["sim_recovery_cycles"])
	}
}

func TestServerSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.b").Add(5)
	base := startTestServer(t, ServerConfig{Snapshot: reg.Snapshot})

	resp, err := http.Get(base + "/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := ReadSnapshot(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a.b"] != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestServerRunsIndex(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest("experiments")
	m.Workloads = []string{"gcc"}
	m.Finish(Snapshot{})
	if err := m.WriteFile(filepath.Join(dir, "run1.json")); err != nil {
		t.Fatal(err)
	}
	// Distractors: non-manifest JSON and a torn file must be skipped.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte(`{"x":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.json"), []byte(`{"tool":"x","sta`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := startTestServer(t, ServerConfig{RunsDir: dir})

	resp, err := http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var runs []RunInfo
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %+v, want exactly the one real manifest", runs)
	}
	if runs[0].Tool != "experiments" || runs[0].File != "run1.json" || !runs[0].HasMetrics {
		t.Fatalf("run index entry = %+v", runs[0])
	}
}

// counterLive is a Live provider whose streams number their frames.
func counterLive(streams *atomic.Int64) func() func() any {
	return func() func() any {
		streams.Add(1)
		n := 0
		return func() any {
			n++
			return map[string]any{"frame": n, "ipc": 0.8}
		}
	}
}

// TestServerLiveStream: a /live stream writes its first frame at
// connect and the next one liveInterval later, from a frame function of
// its own.
func TestServerLiveStream(t *testing.T) {
	var streams atomic.Int64
	srv := NewServer(ServerConfig{Live: counterLive(&streams)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr.String() + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	start := time.Now()
	for want := 1; want <= 2; want++ {
		var event, data string
		for data == "" {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatal("stream ended early")
				}
				if v, ok := strings.CutPrefix(line, "event: "); ok {
					event = v
				}
				if v, ok := strings.CutPrefix(line, "data: "); ok {
					data = v
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no SSE frame %d within 5s", want)
			}
		}
		if event != "progress" {
			t.Errorf("event = %q, want progress", event)
		}
		var payload map[string]any
		if err := json.Unmarshal([]byte(data), &payload); err != nil {
			t.Fatalf("data not JSON: %q: %v", data, err)
		}
		if payload["frame"].(float64) != float64(want) {
			t.Errorf("frame %d payload = %v", want, payload)
		}
	}
	if d := time.Since(start); d < liveInterval {
		t.Errorf("second frame after %v, want one liveInterval (%v) after the first", d, liveInterval)
	}
	if n := streams.Load(); n != 1 {
		t.Errorf("Live called %d times for one stream", n)
	}
}

// TestShutdownDisconnectsLiveSubscribers is the graceful-lifecycle
// regression test: an open /live stream must not wedge Shutdown (SSE
// handlers never finish on their own — the server has to end their
// streams first), and the client's stream must end rather than block a
// writer goroutine forever.
func TestShutdownDisconnectsLiveSubscribers(t *testing.T) {
	var streams atomic.Int64
	srv := NewServer(ServerConfig{Live: counterLive(&streams)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr.String() + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait for the stream to start so Shutdown has a live stream to end
	// (the handler writes its banner first).
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	streamDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, br)
		streamDone <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("Shutdown wedged behind an open /live stream")
	}
	select {
	case <-streamDone:
		// EOF or a reset — either way the subscriber was disconnected.
	case <-time.After(5 * time.Second):
		t.Fatal("client /live stream still open after Shutdown")
	}
}

// TestLiveSubscribeAfterCloseReturns covers a /live request landing
// after Close: its handler must return at once, not park a goroutine on
// a stream nobody will ever end.
func TestLiveSubscribeAfterCloseReturns(t *testing.T) {
	var streams atomic.Int64
	srv := NewServer(ServerConfig{Live: counterLive(&streams)})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The listener is gone; drive the handler directly through the mux,
	// as an embedding server (the daemon's) would.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/live", nil)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		srv.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("/live handler blocked after Close — leaked writer goroutine")
	}
	if !strings.Contains(rec.Body.String(), "turnpike live stream") {
		t.Fatalf("banner missing from post-Close /live response: %q", rec.Body.String())
	}
}

// TestServerHandleMountsExtraRoutes: the daemon mounts its job API next
// to the observability endpoints via Handle/HandleFunc.
func TestServerHandleMountsExtraRoutes(t *testing.T) {
	srv := NewServer(ServerConfig{})
	srv.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	// The catch-all index still serves alongside the method pattern.
	resp, err = http.Get("http://" + addr.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ status = %d after extra routes", resp.StatusCode)
	}
}

func TestServerIndexAndPprof(t *testing.T) {
	base := startTestServer(t, ServerConfig{})
	for _, path := range []string{"/", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("%s body empty", path)
		}
	}
	resp, err := http.Get(base + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", resp.StatusCode)
	}
}
