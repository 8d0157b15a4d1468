package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
)

// buildBinary compiles campaignd once per test.
func buildBinary(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "campaignd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// lockedBuffer collects daemon output from two writers at once: exec's
// stderr-copy goroutine and the test's stdout drain. It deliberately
// implements only Write (no ReadFrom), so both io.Copy paths serialize
// through the mutex instead of racing on a bare bytes.Buffer.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running campaignd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	out  *lockedBuffer // combined stdout+stderr after the address line
}

// startDaemon boots campaignd on a kernel-picked port over dir and
// parses the bound address off its first stdout line.
func startDaemon(t *testing.T, bin, dir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-state", dir}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var buf lockedBuffer
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
		io.Copy(&buf, stdout) //nolint:errcheck
	}()
	select {
	case line, ok := <-lineCh:
		if !ok || !strings.Contains(line, "listening on http://") {
			cmd.Process.Kill()
			t.Fatalf("no address line from campaignd: %q\n%s", line, buf.String())
		}
		base := line[strings.Index(line, "http://"):]
		return &daemon{cmd: cmd, base: base, out: &buf}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("campaignd never printed its address\n%s", buf.String())
		return nil
	}
}

// stop sends SIGTERM and requires a drain: exit status 0 within 30 s
// and the "drained" log line.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, d.out.String())
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon did not exit within 30s of SIGTERM\n%s", d.out.String())
	}
	if !strings.Contains(d.out.String(), "drained") {
		t.Fatalf("exit was not a drain:\n%s", d.out.String())
	}
}

// jobView is the slice of the job JSON the test compares across daemon
// lives: lifecycle outcome plus the raw campaign result.
type jobView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func getJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// submit POSTs one job spec and returns the assigned ID.
func submit(t *testing.T, base string, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %d %s", spec, resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// waitAllDone polls until every job is done, returning each job's
// compacted result bytes.
func waitAllDone(t *testing.T, base string, ids []string, within time.Duration) map[string][]byte {
	t.Helper()
	results := map[string][]byte{}
	deadline := time.Now().Add(within)
	for len(results) < len(ids) {
		for _, id := range ids {
			if _, ok := results[id]; ok {
				continue
			}
			v := getJob(t, base, id)
			switch v.State {
			case "done":
				var compact bytes.Buffer
				if err := json.Compact(&compact, v.Result); err != nil {
					t.Fatalf("%s result: %v", id, err)
				}
				results[id] = compact.Bytes()
			case "failed", "canceled":
				t.Fatalf("%s ended %s: %s", id, v.State, v.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs not done within %s: have %d/%d", within, len(results), len(ids))
		}
		time.Sleep(20 * time.Millisecond)
	}
	return results
}

var jobSpecs = []string{
	`{"bench":"gcc","trials":280,"seed":7,"scale_pct":4,"workers":2,"failure_budget":-1}`,
	`{"bench":"lbm","trials":60,"seed":11,"scale_pct":4,"workers":2,"failure_budget":-1}`,
	`{"bench":"mcf","trials":60,"seed":13,"scale_pct":4,"workers":2,"failure_budget":-1}`,
}

// TestSigtermDrainRestartByteIdentical is the daemon acceptance path,
// process-for-real: submit three jobs over HTTP, SIGTERM while the first
// campaign is mid-flight, assert the daemon drains and exits 0, restart
// it over the same state directory, and assert every job completes with
// results byte-identical to an uninterrupted daemon's.
func TestSigtermDrainRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon three times")
	}
	bin := buildBinary(t)

	// Reference life: never signalled, all three jobs run to completion.
	refDir := t.TempDir()
	ref := startDaemon(t, bin, refDir)
	var refIDs []string
	for _, spec := range jobSpecs {
		refIDs = append(refIDs, submit(t, ref.base, spec))
	}
	want := waitAllDone(t, ref.base, refIDs, 3*time.Minute)
	ref.stop(t)

	// Interrupted life: SIGTERM once job 1's checkpoint holds its first
	// record line after the header (proof the signal lands
	// mid-campaign). -drain is kept short so the drain window expires
	// and the checkpoint-requeue path runs.
	dir := t.TempDir()
	d := startDaemon(t, bin, dir, "-drain", "250ms")
	var ids []string
	for _, spec := range jobSpecs {
		ids = append(ids, submit(t, d.base, spec))
	}
	ckpt := filepath.Join(dir, ids[0]+".ckpt.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(ckpt); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			break
		}
		if v := getJob(t, d.base, ids[0]); v.State == "done" {
			d.cmd.Process.Kill()
			t.Skipf("job 1 finished before SIGTERM could land mid-campaign")
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			t.Fatalf("no checkpointed trial at %s\n%s", ckpt, d.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop(t)
	logs := d.out.String()
	if !strings.Contains(logs, "draining") {
		t.Fatalf("exit was not a drain:\n%s", logs)
	}

	// Next life: same state dir; the three jobs must complete and match
	// the reference byte for byte.
	d2 := startDaemon(t, bin, dir)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		d2.cmd.Wait()                          //nolint:errcheck
	}()
	if !strings.Contains(d2.out.String()+logs, "restored") {
		// The restore log may race the address line; check via the API too.
		resp, err := http.Get(d2.base + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var all []jobView
		if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(all) != len(ids) {
			t.Fatalf("restart restored %d jobs, want %d", len(all), len(ids))
		}
	}
	got := waitAllDone(t, d2.base, ids, 3*time.Minute)
	for i, id := range ids {
		refID := refIDs[i]
		if !bytes.Equal(got[id], want[refID]) {
			t.Errorf("job %d (%s) result diverged after SIGTERM+restart\nresumed:   %s\nreference: %s",
				i+1, id, got[id], want[refID])
		}
	}
}

// TestSpanFileMustStream: -span-file takes only the sinks that write as
// spans flush. A Chrome trace path, whose sink would hold every span of
// the daemon's life in memory until shutdown, is a usage error.
func TestSpanFileMustStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-state", filepath.Join(dir, "state"),
		"-span-file", filepath.Join(dir, "x.json")).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-span-file x.json: err = %v, want exit status 2\n%s", err, out)
	}
	startDaemon(t, bin, filepath.Join(dir, "state"), "-span-file", filepath.Join(dir, "x.jsonl")).stop(t)
	if _, err := os.Stat(filepath.Join(dir, "x.jsonl")); err != nil {
		t.Errorf("span file not created: %v", err)
	}
}

// TestSigtermAtBootDrains: the stop signals are caught before the
// address line goes out, so a SIGTERM sent the moment a script reads it
// drains the daemon instead of killing it.
func TestSigtermAtBootDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := buildBinary(t)
	for i := 0; i < 5; i++ {
		startDaemon(t, bin, t.TempDir()).stop(t)
	}
}

// TestReadyzFlipsDuringDrain boots the daemon with a long-running job
// and a generous drain window, sends SIGTERM, and asserts /readyz turns
// not-ready (draining) while the drain is still in progress.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := buildBinary(t)
	d := startDaemon(t, bin, t.TempDir(), "-drain", "2m")
	defer func() {
		d.cmd.Process.Kill() //nolint:errcheck
		d.cmd.Wait()         //nolint:errcheck
	}()
	id := submit(t, d.base, `{"bench":"gcc","trials":100000,"seed":1,"scale_pct":4}`)
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, d.base, id).State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err != nil {
			t.Fatalf("daemon stopped serving before the drain finished: %v\n%s", err, d.out.String())
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(body, []byte("draining")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never reported draining: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Submissions during the drain are refused.
	resp, err := http.Post(d.base+"/jobs", "application/json",
		strings.NewReader(`{"bench":"lbm"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s", resp.StatusCode, body)
	}
}

// TestRecorderKeepsJobLifecycle: the flight recorder holds Info and
// above, so the per-trial Debug records of a few hundred trials cannot
// evict a job's lifecycle from a 64-event ring: its timeline still
// begins with "job submitted" once the job is done.
func TestRecorderKeepsJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := buildBinary(t)
	d := startDaemon(t, bin, t.TempDir(), "-recorder", "64")
	defer d.stop(t)
	id := submit(t, d.base, `{"bench":"gcc","trials":400,"seed":3,"scale_pct":4,"workers":2,"failure_budget":-1}`)
	waitAllDone(t, d.base, []string{id}, 2*time.Minute)
	resp, err := http.Get(d.base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []struct {
		Msg string `json:"msg"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Msg != "job submitted" {
		t.Fatalf("timeline of %d events does not begin with the job's submission: %+v", len(evs), evs)
	}
}

// TestAdversarialJobOverHTTP: a workerless daemon given the adversarial
// reference's spec over HTTP — an imperfect mesh, containment on by
// default — returns the reference byte for byte, and one with
// "containment":false runs the unsafe operating point, not the default.
func TestAdversarialJobOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "adversarial-gcc-1000.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]json.RawMessage
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, ref["gcc"]); err != nil {
		t.Fatal(err)
	}
	bin := buildBinary(t)
	d := startDaemon(t, bin, t.TempDir())
	defer d.stop(t)
	const spec = `{"bench":"gcc","trials":1000,"seed":42,"scale_pct":100,"failure_budget":-1,` +
		`"adversary":{"miss_prob":0.1,"false_positive_rate":0.2,"dead_sensors":2,"burst_max":3}`
	safe := submit(t, d.base, spec+`}`)
	unsafe := submit(t, d.base, spec+`,"containment":false}`)
	got := waitAllDone(t, d.base, []string{safe, unsafe}, 2*time.Minute)
	if !bytes.Equal(got[safe], want.Bytes()) {
		t.Fatalf("adversarial job result differs from testdata/adversarial-gcc-1000.json:\n%s", got[safe])
	}
	var res struct{ Outcomes map[fault.Outcome]int }
	if err := json.Unmarshal(got[unsafe], &res); err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[fault.DUE] != 0 || res.Outcomes[fault.SDC] == 0 {
		t.Fatalf("containment off: outcomes %v, want SDC trials and no DUE", res.Outcomes)
	}
}
