package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles the faultcampaign command once per test binary.
func buildBinary(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("SIGINT delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "faultcampaign")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptFlushesCheckpointAndResumeReproduces covers the operator
// workflow the checkpoint machinery exists for: an interrupt mid-campaign
// must leave the checkpoint behind as the process exits with status 130,
// and a re-run with the same -resume prefix must finish the campaign with
// output byte-identical to a never-interrupted run. SIGINT (an operator's
// Ctrl-C) and SIGTERM (a supervisor's stop — systemd, Kubernetes, the
// campaignd drain) must take the identical path.
func TestInterruptFlushesCheckpointAndResumeReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary five times")
	}
	bin := buildBinary(t)
	dir := t.TempDir()

	args := func(prefix string) []string {
		return []string{
			"-trials", "3000", "-seed", "7", "-scale", "8", "-workers", "2",
			"-budget", "-1", "-missprob", "0.2", "-burst", "2",
			"-resume", prefix, "gcc",
		}
	}

	// Reference: an uninterrupted run, shared by both signal cases.
	refPrefix := filepath.Join(dir, "ref")
	ref, err := exec.Command(bin, args(refPrefix)...).CombinedOutput()
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, ref)
	}

	for _, tc := range []struct {
		name string
		sig  syscall.Signal
	}{
		{"SIGINT", syscall.SIGINT},
		{"SIGTERM", syscall.SIGTERM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Interrupted run: signal once the checkpoint holds its first
			// record line after the header.
			intPrefix := filepath.Join(dir, "int-"+tc.name)
			ckpt := intPrefix + "-gcc.json"
			cmd := exec.Command(bin, args(intPrefix)...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				if b, err := os.ReadFile(ckpt); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					t.Fatalf("no checkpointed trial appeared at %s within 60s:\n%s", ckpt, out.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := cmd.Process.Signal(tc.sig); err != nil {
				t.Fatal(err)
			}
			err := cmd.Wait()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				// The campaign may have finished before the signal landed on
				// a fast machine; that leaves nothing to resume.
				t.Skipf("campaign completed before %s took effect: err=%v\n%s", tc.name, err, out.String())
			}
			if code := ee.ExitCode(); code != 130 {
				t.Fatalf("exit code %d after %s, want 130\n%s", code, tc.name, out.String())
			}
			if !bytes.Contains(out.Bytes(), []byte("interrupted")) {
				t.Fatalf("interrupted run did not announce partial results:\n%s", out.String())
			}
			fi, err := os.Stat(ckpt)
			if err != nil || fi.Size() == 0 {
				t.Fatalf("checkpoint missing after exit: %v", err)
			}

			// Resume: the finished campaign's output must match the
			// reference byte for byte (the checkpoint restores completed
			// trials; merging is trial-ordered and worker-count independent).
			res, err := exec.Command(bin, args(intPrefix)...).CombinedOutput()
			if err != nil {
				t.Fatalf("resumed run: %v\n%s", err, res)
			}
			if !bytes.Equal(res, ref) {
				t.Fatalf("resumed output diverged from the uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", res, ref)
			}
		})
	}
}
