package pipeline

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// newTestSim compiles the standard kernel and returns a fresh Turnpike sim.
func newTestSim(t *testing.T) *Sim {
	t.Helper()
	c, err := core.Compile(buildBench(60), core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c.Prog, TurnpikeConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 60)
	return s
}

// liveTotals returns the five counts p has received, as Stats fields.
func liveTotals(p *Progress) Stats {
	return Stats{Cycles: uint64(p.Cycles.Value()), Insts: uint64(p.Insts.Value()),
		RegionsExecuted: uint64(p.Regions.Value()), RegionsVerified: uint64(p.RegionsVerified.Value()),
		Recoveries: uint64(p.Recoveries.Value())}
}

// countsOf keeps the five counts of st a Progress receives.
func countsOf(st Stats) Stats {
	return Stats{Cycles: st.Cycles, Insts: st.Insts, RegionsExecuted: st.RegionsExecuted,
		RegionsVerified: st.RegionsVerified, Recoveries: st.Recoveries}
}

// TestProgressMatchesStats runs one simulation with a Progress attached
// and checks the registry's live.* gauges land exactly on the final
// Stats.
func TestProgressMatchesStats(t *testing.T) {
	s := newTestSim(t)
	p := NewProgress(obs.NewRegistry())
	s.AttachProgress(p)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := liveTotals(p); got != countsOf(st) {
		t.Errorf("Progress holds %+v, want %+v", got, countsOf(st))
	}
	if st.RegionsVerified == 0 || st.RegionsVerified > st.RegionsExecuted {
		t.Errorf("RegionsVerified = %d outside (0, RegionsExecuted=%d]",
			st.RegionsVerified, st.RegionsExecuted)
	}
	if p.CLQOcc.Value() < 0 {
		t.Errorf("CLQOcc should be >= 0 on a CLQ config, got %d", p.CLQOcc.Value())
	}
}

// TestNilRegistryPublishesNothing: a nil registry resolves to a nil
// Progress, and a simulator with it attached runs detached.
func TestNilRegistryPublishesNothing(t *testing.T) {
	p := NewProgress(nil)
	if p != nil {
		t.Fatalf("NewProgress(nil) = %+v, want nil", p)
	}
	s := newTestSim(t)
	s.AttachProgress(p)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.FlushProgress()
}

// TestProgressAccumulatesAcrossSims shares one Progress between two
// sequential sims — the campaign/sweep usage — and expects sums.
func TestProgressAccumulatesAcrossSims(t *testing.T) {
	p := NewProgress(obs.NewRegistry())
	var want Stats
	for i := 0; i < 2; i++ {
		s := newTestSim(t)
		s.AttachProgress(p)
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		p.Runs.Add(1)
		want.Merge(&st)
	}
	if got := liveTotals(p); got != countsOf(want) {
		t.Errorf("accumulated %+v, want %+v", got, countsOf(want))
	}
	if p.Runs.Value() != 2 {
		t.Errorf("Runs = %d, want 2", p.Runs.Value())
	}
}

// TestSamplerLiveGauges samples a /live stream concurrently with the
// simulation hot loop — exactly the interleaving `go test -race` watches
// — and checks that frames never regress and that the last one, taken
// after the run, and the registry's live.* gauges agree with it.
func TestSamplerLiveGauges(t *testing.T) {
	s := newTestSim(t)
	reg := obs.NewRegistry()
	p := NewProgress(reg)
	s.AttachProgress(p)
	frame := NewSampler(p).Stream()

	var samples []ProgressSample
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Run(); err != nil {
			t.Error(err)
		}
		p.Runs.Add(1)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(time.Millisecond):
		}
		samples = append(samples, frame().(ProgressSample))
	}
	st := s.Stats
	last := samples[len(samples)-1]
	if last.Cycles != st.Cycles || last.Insts != st.Insts {
		t.Errorf("final sample cycles/insts = %d/%d, want %d/%d",
			last.Cycles, last.Insts, st.Cycles, st.Insts)
	}
	if last.Runs != 1 {
		t.Errorf("final sample runs = %d, want 1", last.Runs)
	}
	if st.Insts > 0 && (last.IPC <= 0 || last.IPC > float64(2)) {
		t.Errorf("IPC = %v outside (0, issue width]", last.IPC)
	}
	// Samples never regress: counters are monotone.
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycles < samples[i-1].Cycles || samples[i].Insts < samples[i-1].Insts ||
			samples[i].WallSeconds < samples[i-1].WallSeconds || samples[i].CyclesPerSecond < 0 {
			t.Fatalf("sample %d went backwards: %+v then %+v", i, samples[i-1], samples[i])
		}
	}
	snap := reg.Snapshot()
	if snap.Gauges["live.cycles"] != int64(st.Cycles) {
		t.Errorf("live.cycles gauge = %d, want %d", snap.Gauges["live.cycles"], st.Cycles)
	}
	if snap.Gauges["live.regions_verified"] != int64(st.RegionsVerified) {
		t.Errorf("live.regions_verified gauge = %d, want %d",
			snap.Gauges["live.regions_verified"], st.RegionsVerified)
	}
}

// TestSamplerServiceGauges: the campaign service's and fleet's figures
// share the registry with the simulation's live.* gauges, but a /live
// frame carries the simulation fields only; the others stay on
// /metrics.
func TestSamplerServiceGauges(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewProgress(reg)
	p.Cycles.Add(100)
	p.Insts.Add(80)
	reg.Gauge("live.jobs_queued").Set(3)
	reg.Counter("service.retries").Add(2)
	reg.Gauge("live.breakers_open").Set(1)
	b, err := json.Marshal(NewSampler(p).Stream()())
	if err != nil {
		t.Fatal(err)
	}
	var frame map[string]any
	if err := json.Unmarshal(b, &frame); err != nil {
		t.Fatal(err)
	}
	var fields []string
	for k := range frame {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	if got, want := strings.Join(fields, " "), "clq_occupancy cycles cycles_per_second insts ipc "+
		"recoveries regions regions_verified runs sb_occupancy wall_seconds workers"; got != want {
		t.Errorf("frame fields %q, want %q", got, want)
	}
	if frame["ipc"] != 0.8 {
		t.Errorf("frame ipc = %v, want 0.8", frame["ipc"])
	}
	snap := reg.Snapshot()
	if snap.Gauges["live.jobs_queued"] != 3 || snap.Counters["service.retries"] != 2 ||
		snap.Gauges["live.breakers_open"] != 1 {
		t.Fatalf("registry = %+v", snap)
	}
}
