package turnpike

import (
	"bufio"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// trialGate is a log handler that holds every campaign worker at its
// first completed trial until release is closed, so a test can observe
// the campaign while trials are in flight.
type trialGate struct {
	once    sync.Once
	held    chan struct{} // closed once a worker is held
	release chan struct{}
}

func (g *trialGate) Enabled(context.Context, slog.Level) bool { return true }
func (g *trialGate) WithAttrs([]slog.Attr) slog.Handler       { return g }
func (g *trialGate) WithGroup(string) slog.Handler            { return g }

func (g *trialGate) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "trial complete" {
		g.once.Do(func() { close(g.held) })
		<-g.release
	}
	return nil
}

// TestLiveCampaignServing wires the exact stack cmd/faultcampaign -serve
// uses — InjectFaults publishing into a shared registry, whose live.*
// gauges an obs.Server's /live streams sample — and scrapes /metrics and
// /live WHILE the campaign is in flight: its workers are held at their
// first completed trial. It is the acceptance test for the live
// observability layer: the exposition must parse, and the SSE stream
// must deliver a progress frame, with every simulation field, that
// shows trials running.
func TestLiveCampaignServing(t *testing.T) {
	reg := obs.NewRegistry()
	srv := obs.NewServer(obs.ServerConfig{Snapshot: reg.Snapshot,
		Live: pipeline.NewSampler(pipeline.NewProgress(reg)).Stream})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	// Run the campaign in the background; scrape while its workers are
	// held mid-run.
	gate := &trialGate{held: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release()
	var wg sync.WaitGroup
	wg.Add(1)
	var campErr error
	go func() {
		defer wg.Done()
		_, campErr = InjectFaults("gcc", Turnpike, FaultCampaignConfig{
			Trials: 60, Seed: 3, ScalePct: 8, Metrics: reg,
			Workers: 4, Logger: slog.New(gate),
		})
	}()
	select {
	case <-gate.held:
	case <-time.After(30 * time.Second):
		t.Fatal("no trial completed within 30s")
	}

	// /live: collect one progress event while trials are in flight.
	liveResp, err := http.Get(base + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer liveResp.Body.Close()
	type lineRes struct {
		line string
		ok   bool
	}
	lines := make(chan lineRes, 64)
	go func() {
		sc := bufio.NewScanner(liveResp.Body)
		for sc.Scan() {
			lines <- lineRes{sc.Text(), true}
		}
		lines <- lineRes{"", false}
	}()
	var frame map[string]any
	deadline := time.After(30 * time.Second)
	for frame == nil {
		select {
		case l := <-lines:
			if !l.ok {
				t.Fatal("live stream closed before any progress event")
			}
			if data, found := strings.CutPrefix(l.line, "data: "); found {
				if err := json.Unmarshal([]byte(data), &frame); err != nil {
					t.Fatalf("SSE data not JSON: %q: %v", data, err)
				}
			}
		case <-deadline:
			t.Fatal("no /live event within 30s")
		}
	}
	var fields []string
	for k := range frame {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	if got, want := strings.Join(fields, " "), "clq_occupancy cycles cycles_per_second insts ipc "+
		"recoveries regions regions_verified runs sb_occupancy wall_seconds workers"; got != want {
		t.Errorf("/live frame fields %q, want %q", got, want)
	}
	// Mid-run: both golden runs and at least one trial are counted, not
	// all 60 trials, and a held worker is still running.
	if runs, workers := frame["runs"].(float64), frame["workers"].(float64); runs < 3 || runs >= 62 || workers < 1 {
		t.Errorf("/live frame mid-run shows %v runs and %v workers, want 3..61 runs and a worker", runs, workers)
	}

	// /metrics mid-run: must be parseable Prometheus text exposition.
	metResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	sc := bufio.NewScanner(metResp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	metResp.Body.Close()
	if metResp.Header.Get("Content-Type") != obs.PromContentType {
		t.Errorf("content type = %q", metResp.Header.Get("Content-Type"))
	}
	fams := parseProm(t, body.String())
	if len(fams) == 0 {
		t.Fatal("mid-run /metrics exposed no families")
	}

	release()
	wg.Wait()
	if campErr != nil {
		t.Fatal(campErr)
	}

	// The final state must reflect the whole campaign: 60 trials plus the
	// cold golden run and its warm-start baseline rerun, with live gauges
	// present in the exposition.
	finalFams := parseProm(t, scrape(t, base+"/metrics"))
	if _, ok := finalFams["live_cycles"]; !ok {
		t.Error("live_cycles gauge missing from final exposition")
	}
	if finalFams["live_runs"] != 62 {
		t.Errorf("live_runs = %d, want 62", finalFams["live_runs"])
	}
	// Worker-level progress is part of the SSE/metrics contract: the
	// gauge must be exposed, and must read zero once the pool has drained.
	if v, ok := finalFams["live_workers"]; !ok {
		t.Error("live_workers gauge missing from final exposition")
	} else if v != 0 {
		t.Errorf("live_workers = %d after campaign end, want 0", v)
	}
	if sum := finalFams["fault_outcome_masked_total"] + finalFams["fault_outcome_recovered_total"]; sum != 60 {
		t.Errorf("outcome counters sum to %d, want 60", sum)
	}
}

// scrape GETs a URL and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// parseProm is a minimal strict parser for the exposition subset the
// server emits: TYPE comments plus `name value` and bucket samples. It
// returns plain (non-bucket) sample values by name and fails on any
// unrecognized line.
func parseProm(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	typed := map[string]bool{}
	vals := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown family type in %q", line)
			}
			typed[f[0]] = true
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad sample line %q", line)
		}
		var v uint64
		if _, err := json.Number(val).Int64(); err != nil {
			t.Fatalf("bad value in %q", line)
		}
		json.Unmarshal([]byte(val), &v) //nolint:errcheck — checked above
		if i := strings.IndexByte(name, '{'); i >= 0 {
			continue // histogram bucket; family presence checked via TYPE
		}
		vals[name] = v
	}
	if len(typed) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
	return vals
}
