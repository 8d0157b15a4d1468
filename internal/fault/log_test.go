package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/olog"
	"repro/internal/pipeline"
)

// lockedBuffer lets campaign workers share one log sink; slog handlers
// serialize individual Handle calls but the buffer itself must be safe.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestCampaignStructuredLog drives a small campaign with a Debug logger
// under a job-correlated context and checks the full chain: lifecycle
// lines carry the job ID, per-trial Debug lines add shard and trial
// indices, and every line is one JSON object in the pinned schema.
func TestCampaignStructuredLog(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	var sink lockedBuffer
	cfg := Config{
		Trials:  12,
		Seed:    7,
		Sim:     pipeline.TurnpikeConfig(4, 10),
		Workers: 3,
		Logger:  olog.New(&sink, olog.Options{Level: slog.LevelDebug}),
	}
	ctx := olog.WithJobID(olog.WithRequestID(context.Background(), "req-42"), "job-log-1")
	if _, err := CampaignContext(ctx, prog, cfg, p.SeedMemory); err != nil {
		t.Fatal(err)
	}

	var sawStart, sawComplete bool
	trials := map[float64]bool{}
	for _, ln := range sink.Lines() {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, ln)
		}
		if m["job_id"] != "job-log-1" || m["request_id"] != "req-42" {
			t.Fatalf("line lost the correlation chain: %s", ln)
		}
		switch m["msg"] {
		case "campaign start":
			sawStart = true
			if m["trials"] != float64(12) || m["workers"] != float64(3) {
				t.Errorf("campaign start fields wrong: %s", ln)
			}
		case "campaign complete":
			sawComplete = true
			if m["completed"] != float64(12) {
				t.Errorf("campaign complete fields wrong: %s", ln)
			}
		case "trial complete":
			sh, okS := m["shard"].(float64)
			tr, okT := m["trial"].(float64)
			if !okS || !okT || sh < 0 || sh > 2 || tr < 0 || tr > 11 {
				t.Fatalf("trial line missing shard/trial: %s", ln)
			}
			trials[tr] = true
			if _, ok := m["outcome"].(string); !ok {
				t.Errorf("trial line missing outcome: %s", ln)
			}
		}
	}
	if !sawStart || !sawComplete {
		t.Errorf("lifecycle lines missing: start=%v complete=%v", sawStart, sawComplete)
	}
	if len(trials) != 12 {
		t.Errorf("saw %d distinct trial lines, want 12", len(trials))
	}
}

// TestCampaignLoggerOffIsDeterministic: attaching a logger must not
// perturb the campaign result (logging reads state, never draws from
// the trial streams).
func TestCampaignLoggerOffIsDeterministic(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	base := Config{Trials: 20, Seed: 5, Sim: pipeline.TurnpikeConfig(4, 10), Workers: 2}

	quiet, err := Campaign(prog, base, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	loud := base
	var sink lockedBuffer
	loud.Logger = olog.New(&sink, olog.Options{Level: slog.LevelDebug})
	logged, err := Campaign(prog, loud, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.CompletedTrials != logged.CompletedTrials ||
		len(quiet.Outcomes) != len(logged.Outcomes) {
		t.Errorf("logger changed the campaign result: %+v vs %+v", quiet, logged)
	}
	for k, v := range quiet.Outcomes {
		if logged.Outcomes[k] != v {
			t.Errorf("outcome %s: %d with logger vs %d without", k, logged.Outcomes[k], v)
		}
	}
}
