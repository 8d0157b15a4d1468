package service_test

// In-process end-to-end proof of the distributed-campaign acceptance
// criterion: a coordinator plus two workers talking over a seeded
// chaos transport (drops, delays, duplicate deliveries), with one worker
// SIGKILLed mid-flight (its context cancelled AND its transport severed,
// so not even a farewell report escapes), must finish the campaign with
// a Result byte-identical to an uninterrupted single-node run.
//
// The chaos knobs are test flags so nightly CI can fuzz them:
//
//	go test ./internal/service/ -run TestFleetChaos \
//	    -chaos-seed 42 -chaos-drop 0.1 -chaos-dup 0.1 -chaos-delay 10ms

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	turnpike "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
)

var (
	chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the fleet chaos transport's fault schedule")
	chaosDrop  = flag.Float64("chaos-drop", 0.05, "per-request drop probability for the fleet chaos transport")
	chaosDup   = flag.Float64("chaos-dup", 0.05, "per-request duplicate-delivery probability for the fleet chaos transport")
	chaosDelay = flag.Duration("chaos-delay", 5*time.Millisecond, "added-latency cap per request for the fleet chaos transport")
)

// killSwitch simulates SIGKILL at the network layer: once thrown, every
// request errors before leaving the worker — no final shard, no failure
// report, no heartbeat.
type killSwitch struct {
	base http.RoundTripper
	dead atomic.Bool
}

func (k *killSwitch) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, fmt.Errorf("killswitch: worker process is gone")
	}
	return k.base.RoundTrip(req)
}

func TestFleetChaosKillWorkerByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real fleet e2e")
	}
	const fleetTrials = 240
	spec := service.JobSpec{
		Spec:    fault.Spec{Bench: "gcc", Trials: fleetTrials, Seed: 7, ScalePct: 4, FailureBudget: -1},
		Workers: 2, Lease: 8,
	}
	ref, err := turnpike.InjectFaults(spec.Bench, turnpike.Turnpike, turnpike.FaultCampaignConfig{
		Trials: spec.Trials, Seed: spec.Seed, ScalePct: spec.ScalePct,
		Workers: spec.Workers, FailureBudget: spec.FailureBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator: fleet-executor service with tight liveness timings so
	// the killed worker is declared lost within the test's patience.
	reg := obs.NewRegistry()
	fleet := service.NewFleet(service.FleetConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   3,
		LeaseTTL:          2 * time.Second,
		StealAfter:        500 * time.Millisecond,
		PollInterval:      10 * time.Millisecond,
		Metrics:           reg,
	})
	svc, err := service.New(service.Config{
		StateDir: t.TempDir(),
		Executor: &service.FleetExecutor{Fleet: fleet, Prepare: service.CampaignPrepare(nil, nil, nil)},
		Fleet:    fleet,
		Metrics:  reg,
		Logger:   service.TLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())

	obsSrv := obs.NewServer(obs.ServerConfig{Snapshot: reg.Snapshot})
	svc.Mount(obsSrv)
	ts := httptest.NewServer(obsSrv.Handler())
	defer ts.Close()

	// Two workers behind independently seeded chaos transports; worker 1
	// additionally sits behind the kill switch.
	kill := &killSwitch{base: http.DefaultTransport}
	w1Ctx, w1Cancel := context.WithCancel(context.Background())
	w2Ctx, w2Cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { // stop the workers before the server and service go away
		w1Cancel()
		w2Cancel()
		wg.Wait()
	}()
	workers := make([]*service.WorkerClient, 2)
	for i, wc := range []struct {
		ctx   context.Context
		base  http.RoundTripper
		seed  int64
		label string
	}{
		{w1Ctx, kill, *chaosSeed, "victim"},
		{w2Ctx, http.DefaultTransport, *chaosSeed + 1, "survivor"},
	} {
		w, err := service.NewWorkerClient(service.WorkerConfig{
			Coordinator: ts.URL,
			Prepare:     service.CampaignPrepare(nil, nil, nil),
			Client: &http.Client{
				Transport: service.NewChaosTransport(wc.base, wc.seed, *chaosDrop, *chaosDup, *chaosDelay),
			},
			RetryBase: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		ctx := wc.ctx
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck — cancellation is the expected exit
		}()
	}

	// Submit only once both workers are registered: a live remote fleet
	// suppresses the coordinator's local fallback, so the campaign is
	// executed by the workers (the raw local path is covered by the
	// service e2e tests).
	regDeadline := time.Now().Add(30 * time.Second)
	for fleet.Snapshot().WorkersLive < 2 {
		if time.Now().After(regDeadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	settled := func(st service.State) bool {
		return st == service.StateDone || st == service.StateFailed || st == service.StateCanceled
	}

	// Wait until the fleet has accepted remote work mid-flight, then kill
	// worker 1: context gone AND transport severed — a true SIGKILL as
	// seen from the coordinator.
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := fleet.Snapshot()
		accepted := 0
		for _, w := range st.Workers {
			accepted += w.Trials
		}
		if accepted > 0 {
			break
		}
		if jb, err := svc.Job(j.ID); err == nil && settled(jb.State) {
			t.Fatalf("job settled (%s) before any remote shard was accepted", jb.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no remote shard accepted; workers never engaged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	kill.dead.Store(true)
	w1Cancel()
	t.Logf("killed worker %s mid-campaign", workers[0].ID())

	// The coordinator must declare the victim lost (reclaiming its
	// leases) while the campaign is still in flight — unless the survivor
	// outruns the miss budget entirely, which the trial count prevents in
	// practice.
	sawLost := false
	for !sawLost {
		if fleet.Snapshot().WorkersLost > 0 {
			sawLost = true
			break
		}
		jb, err := svc.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if settled(jb.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed worker never declared lost")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The surviving worker (with steal + requeue) finishes the job.
	var done *service.Job
	for {
		jb, err := svc.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jb.State == service.StateDone {
			done = jb
			break
		}
		if settled(jb.State) {
			t.Fatalf("job ended %s: %s", jb.State, jb.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jb.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("fleet result diverged from single-node run\nfleet: %s\nwant:  %s", got, want)
	}
	if done.Result.CompletedTrials != fleetTrials {
		t.Fatalf("completed %d/%d trials", done.Result.CompletedTrials, fleetTrials)
	}
	if !sawLost {
		t.Log("campaign finished before the victim was declared lost; byte identity still held")
	}

	// The fleet gauges and lease counters are on /metrics in Prometheus
	// exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The exposition format sanitizes "live.fleet_workers" to
	// "live_fleet_workers" and suffixes counters with _total
	// (obs.PromName).
	for _, name := range []string{"live_fleet_workers", "fleet_leases_stolen_total", "fleet_leases_expired_total"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestFleetAdversarialJobByteIdentical: a job with an adversary and
// containment off, submitted over HTTP and run by two in-process
// workers, merges byte-identically to turnpike.InjectFaults of the same
// spec, so both fields reach the workers in LeaseGrant.Spec.
func TestFleetAdversarialJobByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real fleet e2e")
	}
	const trials = 160
	off := false
	adv := &fault.Adversary{MissProb: 0.5, FalsePositiveRate: 0.1, DeadSensors: 2, BurstMax: 3}
	ref, err := turnpike.InjectFaults("gcc", turnpike.Turnpike, turnpike.FaultCampaignConfig{
		Trials: trials, Seed: 9, ScalePct: 4, FailureBudget: -1, Adversary: adv, Containment: &off,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Outcomes[fault.SDC] == 0 {
		t.Fatal("the reference shows no SDC: containment off was not exercised")
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	fleet := service.NewFleet(service.FleetConfig{HeartbeatInterval: 50 * time.Millisecond, PollInterval: 10 * time.Millisecond})
	svc, err := service.New(service.Config{
		StateDir: t.TempDir(),
		Executor: &service.FleetExecutor{Fleet: fleet, Prepare: service.CampaignPrepare(nil, nil, nil)},
		Fleet:    fleet,
		Logger:   service.TLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	svc.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for range 2 {
		w, err := service.NewWorkerClient(service.WorkerConfig{Coordinator: ts.URL,
			Prepare: service.CampaignPrepare(nil, nil, nil)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck — cancellation is the expected exit
		}()
	}
	deadline := time.Now().Add(60 * time.Second)
	for fleet.Snapshot().WorkersLive < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	body := fmt.Sprintf(`{"bench":"gcc","trials":%d,"seed":9,"scale_pct":4,"workers":2,"lease":8,"failure_budget":-1,`+
		`"adversary":{"miss_prob":0.5,"false_positive_rate":0.1,"dead_sensors":2,"burst_max":3},"containment":false}`, trials)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var j service.Job
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	for {
		jb, err := svc.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jb.State == service.StateDone {
			got, err := json.Marshal(jb.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("fleet result diverged from turnpike.InjectFaults\nfleet: %s\nwant:  %s", got, want)
			}
			break
		}
		if jb.State == service.StateFailed || jb.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", jb.State, jb.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jb.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	remote := 0
	for _, w := range fleet.Snapshot().Workers {
		remote += w.Trials
	}
	if remote != trials {
		t.Fatalf("workers ran %d of %d trials", remote, trials)
	}
}
