package olog

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestLogSchemaGolden pins the JSON log-line schema: the base fields
// slog emits, the correlation keys, and their order. Dashboards, the
// flight recorder, and the e2e correlation test all key off these
// names — a change here is a breaking schema change and must be
// deliberate.
func TestLogSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Options{Format: "json", Level: slog.LevelDebug})
	ctx := WithTrial(WithShard(WithJobID(WithRequestID(WithTenantID(context.Background(),
		"acme"), "req-abc"), "job-000001"), 3), 17)
	l.LogAttrs(ctx, slog.LevelInfo, "campaign trial",
		slog.String("outcome", "recovered"), slog.Int("attempt", 1))

	line := strings.TrimSpace(buf.String())
	// Field order is part of the schema: slog's base trio, then the call
	// site's attrs, then the correlation chain outermost-first.
	wantOrder := []string{"time", "level", "msg", "outcome", "attempt",
		KeyTenantID, KeyRequestID, KeyJobID, KeyShard, KeyTrial}
	pos := -1
	for _, k := range wantOrder {
		idx := strings.Index(line, `"`+k+`":`)
		if idx < 0 {
			t.Fatalf("schema field %q missing from line: %s", k, line)
		}
		if idx < pos {
			t.Errorf("schema field %q out of order in line: %s", k, line)
		}
		pos = idx
	}

	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("log line is not one JSON object: %v\n%s", err, line)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := append([]string(nil), wantOrder...)
	sort.Strings(want)
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("schema drifted:\n got %v\nwant %v", keys, want)
	}
	if m["msg"] != "campaign trial" || m[KeyTenantID] != "acme" || m[KeyRequestID] != "req-abc" ||
		m[KeyJobID] != "job-000001" || m[KeyShard] != float64(3) || m[KeyTrial] != float64(17) {
		t.Errorf("schema values wrong: %v", m)
	}
}

func TestUnsetCorrelationEmitsNothing(t *testing.T) {
	var buf bytes.Buffer
	New(&buf, Options{}).Info("plain")
	for _, k := range []string{KeyTenantID, KeyRequestID, KeyJobID, KeyShard, KeyTrial} {
		if strings.Contains(buf.String(), k) {
			t.Errorf("unset correlation key %q emitted: %s", k, buf.String())
		}
	}
}

func TestCorrChainAccumulates(t *testing.T) {
	ctx := WithRequestID(context.Background(), "r1")
	ctx = WithJobID(ctx, "j1")
	inner := WithTrial(WithShard(ctx, 0), 0)
	c := FromContext(inner)
	if c.RequestID != "r1" || c.JobID != "j1" || c.Shard != 0 || c.Trial != 0 {
		t.Errorf("chain lost fields: %+v", c)
	}
	// The outer context is untouched — each With* derives a new context.
	if got := FromContext(ctx); got.Shard != -1 || got.Trial != -1 {
		t.Errorf("With* mutated parent context: %+v", got)
	}
	if got := FromContext(context.Background()); got != emptyCorr() {
		t.Errorf("empty context chain = %+v", got)
	}
}

func TestNewRequestIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("request id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("request id %q repeated", id)
		}
		seen[id] = true
	}
}

func TestTextFormatAndLeveling(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Options{Format: "text", Level: slog.LevelWarn})
	l.Info("suppressed")
	l.Warn("kept", "k", "v")
	out := buf.String()
	if strings.Contains(out, "suppressed") {
		t.Errorf("info line leaked past Warn level: %s", out)
	}
	if !strings.Contains(out, "kept") || !strings.Contains(out, "k=v") {
		t.Errorf("text line malformed: %s", out)
	}
}

func TestFanoutLevels(t *testing.T) {
	var loud, quiet bytes.Buffer
	l := Attach(
		NewHandler(&quiet, Options{Level: slog.LevelWarn}),
		NewHandler(&loud, Options{Level: slog.LevelDebug}),
	)
	if !l.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatal("fanout must be enabled when any leg is")
	}
	l.Debug("detail")
	l.Warn("problem")
	if strings.Contains(quiet.String(), "detail") {
		t.Errorf("warn-leveled leg got debug line: %s", quiet.String())
	}
	if !strings.Contains(loud.String(), "detail") || !strings.Contains(loud.String(), "problem") {
		t.Errorf("debug leg missing lines: %s", loud.String())
	}
	if !strings.Contains(quiet.String(), "problem") {
		t.Errorf("warn leg missing warn line: %s", quiet.String())
	}
}

// TestDisabledLoggerZeroAlloc pins the disabled path's cost: a Nop
// logger — and the `l.Enabled(...)` guard hot loops use before building
// per-trial attrs — must not allocate.
func TestDisabledLoggerZeroAlloc(t *testing.T) {
	l := Nop()
	ctx := context.Background()
	if avg := testing.AllocsPerRun(1000, func() {
		if l.Enabled(ctx, slog.LevelDebug) {
			l.LogAttrs(ctx, slog.LevelDebug, "trial", slog.Int("t", 1))
		}
	}); avg != 0 {
		t.Errorf("disabled logging path allocates %.1f/op, want 0", avg)
	}
}

func BenchmarkDisabledLogging(b *testing.B) {
	l := Nop()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l.Enabled(ctx, slog.LevelDebug) {
			l.LogAttrs(ctx, slog.LevelDebug, "trial", slog.Int("t", i))
		}
	}
}

func BenchmarkEnabledJSONLogging(b *testing.B) {
	l := New(&bytes.Buffer{}, Options{Format: "json", Level: slog.LevelDebug})
	ctx := WithTrial(WithJobID(context.Background(), "job-1"), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.LogAttrs(ctx, slog.LevelDebug, "trial", slog.Int("t", i))
	}
}
