package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildTrace compiles the trace command into a temporary directory.
func buildTrace(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "trace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestTimelineGolden: -timeline prints the dynamic region table, read
// from the tracer's region and verify spans, exactly as the golden files
// under testdata hold it.
func TestTimelineGolden(t *testing.T) {
	bin := buildTrace(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"timeline-gcc-20.txt", []string{"-q", "-timeline", "20", "gcc"}},
		{"timeline-turnstile-lbm-5.txt", []string{"-q", "-timeline", "5", "-scheme", "turnstile", "lbm"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("trace %v: %v", tc.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace %v printed\n%s\nwant\n%s", tc.args, got, want)
			}
		})
	}
}

// TestBurstFitsDetectQueue: a burst of eight strikes and a false
// positive share the detection queue, which the command sizes to hold
// them, and the Chrome trace shows the regions and the recovery.
func TestBurstFitsDetectQueue(t *testing.T) {
	bin := buildTrace(t)
	out := filepath.Join(t.TempDir(), "t.json")
	if msg, err := exec.Command(bin, "-q", "-trace", out, "-burst", "8", "-fp", "gcc").CombinedOutput(); err != nil {
		t.Fatalf("trace -burst 8 -fp: %v\n%s", err, msg)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("not a Chrome trace: %v", err)
	}
	lanes := map[any]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			lanes[ev.Args["name"]] = true
		}
	}
	for _, lane := range []string{"regions", "recovery"} {
		if !lanes[lane] {
			t.Errorf("trace has no %q lane; lanes: %v", lane, lanes)
		}
	}
}
