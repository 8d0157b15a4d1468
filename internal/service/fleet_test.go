package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// fakeClock is the deterministic time source behind FleetConfig.Now: the
// lease-expiry and heartbeat-loss edges are exact-instant comparisons,
// so the tests advance time by hand and call Tick directly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fleetSpec is the one campaign definition shared by a test's session,
// its worker-side shards, and its single-node reference — the
// byte-identity comparisons only mean something if all three agree.
func fleetSpec(trials, lease int) JobSpec {
	return JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: trials, Seed: 5, ScalePct: 4, FailureBudget: -1},
		Workers: 2, Lease: lease}
}

// fleetSession opens a distributed session over the shared campaign.
func fleetSession(t *testing.T, trials, lease int, ckpt string) (*fault.Session, JobSpec) {
	t.Helper()
	spec := fleetSpec(trials, lease)
	p, _, err := CampaignPrepare(nil, nil, nil)(context.Background(), spec, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sess, spec
}

// fleetReference runs the identical campaign uninterrupted on one node.
func fleetReference(t *testing.T, trials int) *fault.Result {
	t.Helper()
	p, _, err := CampaignPrepare(nil, nil, nil)(context.Background(), fleetSpec(trials, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// LocalFleet wires cfg as cmd/campaignd ships with no workers joined: a
// FleetExecutor over the real engine (CampaignPrepare) whose workerless
// fleet runs every trial in process. Exported for the external e2e
// tests.
func LocalFleet(cfg Config, logger *slog.Logger, programs ProgramResolver) Config {
	cfg.Fleet = NewFleet(FleetConfig{})
	cfg.Executor = &FleetExecutor{Fleet: cfg.Fleet, Prepare: CampaignPrepare(nil, logger, programs)}
	return cfg
}

// runShard executes one range on the session's own simulators — the
// stand-in for a remote worker's execution (the engines are
// deterministic, so the bytes are the same either way).
func runShard(t *testing.T, sess *fault.Session, lo, hi int) *fault.ShardResult {
	t.Helper()
	sh, err := sess.RunRange(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// addFleetJob registers a session with the coordinator the way
// Fleet.Run's prologue does, without starting its in-process loop —
// the tests own every grant and completion.
func addFleetJob(f *Fleet, id string, spec JobSpec, sess *fault.Session) *fleetJob {
	fj := &fleetJob{id: id, spec: spec, sess: sess, kick: make(chan struct{}, 1)}
	f.addJob(fj)
	return fj
}

// TestFleetLeaseExpiryAtCheckpointWatermark: a lease whose range starts
// exactly at the checkpoint watermark expires exactly at its deadline
// boundary (Deadline itself is still live; one instant past is not), the
// watermark is untouched, and the re-granted range finishes the campaign
// byte-identical to a single-node run.
func TestFleetLeaseExpiryAtCheckpointWatermark(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign fleet test")
	}
	const trials, lease = 24, 8
	clk := newFakeClock()
	reg := obs.NewRegistry()
	f := NewFleet(FleetConfig{
		HeartbeatInterval: time.Hour, // liveness is not under test here
		LeaseTTL:          10 * time.Second,
		Metrics:           reg,
		Now:               clk.Now,
	})
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt.json")
	sess, spec := fleetSession(t, trials, lease, ckpt)
	addFleetJob(f, "job-ckpt", spec, sess)

	if _, err := f.Register("w1", ""); err != nil {
		t.Fatal(err)
	}
	g1, err := f.Lease("w1")
	if err != nil || g1 == nil || g1.Lo != 0 || g1.Hi != 8 {
		t.Fatalf("first grant = %+v, %v; want [0,8)", g1, err)
	}
	if fresh, err := f.Complete("w1", g1.LeaseID, runShard(t, sess, 0, 8)); err != nil || fresh != 8 {
		t.Fatalf("complete [0,8): fresh=%d err=%v", fresh, err)
	}
	if b, err := os.ReadFile(ckpt); err != nil || bytes.Count(b, []byte("\n")) != 1+lease {
		t.Fatalf("checkpoint after the first shard holds %d lines (%v), want a header and %d records",
			bytes.Count(b, []byte("\n")), err, lease)
	}
	if got := sess.Completed(); got != lease {
		t.Fatalf("watermark = %d, want %d", got, lease)
	}

	// The lease under test starts exactly at the watermark.
	g2, err := f.Lease("w1")
	if err != nil || g2 == nil || g2.Lo != lease {
		t.Fatalf("watermark grant = %+v, %v; want lo=%d", g2, err, lease)
	}

	// Exactly at the deadline: still live (expiry is now.After(Deadline)).
	clk.Advance(10 * time.Second)
	f.Tick()
	if got := reg.Counter("fleet.leases_expired").Value(); got != 0 {
		t.Fatalf("lease expired exactly at its deadline (expired=%d)", got)
	}
	// One instant past: reclaimed, range requeued, watermark untouched.
	clk.Advance(time.Nanosecond)
	f.Tick()
	if got := reg.Counter("fleet.leases_expired").Value(); got != 1 {
		t.Fatalf("leases_expired = %d after deadline passed, want 1", got)
	}
	if got := sess.Completed(); got != lease {
		t.Fatalf("watermark moved across an expiry: %d, want %d", got, lease)
	}
	var expired *Lease
	for _, l := range f.Snapshot().Leases {
		if l.ID == g2.LeaseID {
			expired = &l
			break
		}
	}
	if expired == nil || expired.State != LeaseExpired {
		t.Fatalf("lease %s state = %+v, want expired", g2.LeaseID, expired)
	}

	// The reclaimed range is re-granted first, then the campaign finishes
	// byte-identical to the uninterrupted single-node run.
	g3, err := f.Lease("w1")
	if err != nil || g3 == nil || g3.Lo != g2.Lo || g3.Hi != g2.Hi {
		t.Fatalf("re-grant = %+v, %v; want [%d,%d)", g3, err, g2.Lo, g2.Hi)
	}
	if _, err := f.Complete("w1", g3.LeaseID, runShard(t, sess, g3.Lo, g3.Hi)); err != nil {
		t.Fatal(err)
	}
	g4, err := f.Lease("w1")
	if err != nil || g4 == nil {
		t.Fatalf("final grant = %+v, %v", g4, err)
	}
	if _, err := f.Complete("w1", g4.LeaseID, runShard(t, sess, g4.Lo, g4.Hi)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleetReference(t, trials), res) {
		t.Error("result after watermark-boundary expiry diverged from single-node run")
	}
}

// TestFleetWorkStealingDuplicateCompletion: a straggler's lease is
// duplicated after StealAfter, the thief's shard wins, and the loser's
// late shard is cross-validated — an identical one is benign, a
// contradicting one quarantines the submitter, revokes the range, and
// re-runs it; the final result is still byte-identical to a single-node
// run.
func TestFleetWorkStealingDuplicateCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign fleet test")
	}
	const trials = 32
	clk := newFakeClock()
	reg := obs.NewRegistry()
	f := NewFleet(FleetConfig{
		HeartbeatInterval: time.Hour,
		LeaseTTL:          time.Hour, // only stealing moves work in this test
		StealAfter:        5 * time.Second,
		Metrics:           reg,
		Now:               clk.Now,
	})
	sess, spec := fleetSession(t, trials, 16, "")
	addFleetJob(f, "job-steal", spec, sess)
	for _, id := range []string{"w1", "w2"} {
		if _, err := f.Register(id, ""); err != nil {
			t.Fatal(err)
		}
	}

	// w1 takes [0,16) and straggles; w2 clears [16,32) and then goes
	// hunting.
	g1, err := f.Lease("w1")
	if err != nil || g1 == nil || g1.Lo != 0 || g1.Hi != 16 {
		t.Fatalf("w1 grant = %+v, %v; want [0,16)", g1, err)
	}
	g2, err := f.Lease("w2")
	if err != nil || g2 == nil || g2.Lo != 16 || g2.Hi != 32 {
		t.Fatalf("w2 grant = %+v, %v; want [16,32)", g2, err)
	}
	if _, err := f.Complete("w2", g2.LeaseID, runShard(t, sess, 16, 32)); err != nil {
		t.Fatal(err)
	}
	// Too early to steal: the straggler has until StealAfter.
	if g, err := f.Lease("w2"); err != nil || g != nil {
		t.Fatalf("premature steal: grant=%+v err=%v, want none", g, err)
	}
	clk.Advance(5 * time.Second)
	stolen, err := f.Lease("w2")
	if err != nil || stolen == nil || stolen.Lo != 0 || stolen.Hi != 16 {
		t.Fatalf("steal grant = %+v, %v; want duplicate of [0,16)", stolen, err)
	}
	if got := reg.Counter("fleet.leases_stolen").Value(); got != 1 {
		t.Fatalf("leases_stolen = %d, want 1", got)
	}
	var stolenRec *Lease
	for _, l := range f.Snapshot().Leases {
		if l.ID == stolen.LeaseID {
			stolenRec = &l
			break
		}
	}
	if stolenRec == nil || !stolenRec.Stolen {
		t.Fatalf("stolen lease record = %+v, want Stolen=true", stolenRec)
	}

	// First complete wins: the thief lands the range; the straggler's
	// grant is superseded.
	good := runShard(t, sess, 0, 16)
	if fresh, err := f.Complete("w2", stolen.LeaseID, good); err != nil || fresh != 16 {
		t.Fatalf("thief completion: fresh=%d err=%v", fresh, err)
	}
	for _, l := range f.Snapshot().Leases {
		if l.ID == g1.LeaseID && l.State != LeaseSuperseded {
			t.Fatalf("straggler lease state = %s, want superseded", l.State)
		}
	}

	// The straggler finally reports — with records that contradict the
	// committed ones. Cross-validation quarantines it, revokes the range,
	// and its trials are pending again.
	lying := *good
	lying.Records = append([]fault.TrialRecord(nil), good.Records...)
	lying.Records[2].Stats.Cycles += 7
	lying.Seal()
	if _, err := f.Complete("w1", g1.LeaseID, &lying); !errors.Is(err, fault.ErrShardMismatch) {
		t.Fatalf("contradicting duplicate: err = %v, want ErrShardMismatch", err)
	}
	if err := f.Heartbeat("w1"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("quarantined heartbeat: err = %v, want ErrWorkerQuarantined", err)
	}
	if p := sess.Pending(); len(p) != 1 || p[0] != (fault.TrialRange{Lo: 0, Hi: 16}) {
		t.Fatalf("pending after revocation = %v, want [0,16)", p)
	}

	// The surviving worker re-runs the revoked range; the merge is still
	// byte-identical to the uninterrupted run.
	redo, err := f.Lease("w2")
	if err != nil || redo == nil || redo.Lo != 0 || redo.Hi != 16 {
		t.Fatalf("post-revoke grant = %+v, %v; want [0,16)", redo, err)
	}
	if fresh, err := f.Complete("w2", redo.LeaseID, runShard(t, sess, 0, 16)); err != nil || fresh != 16 {
		t.Fatalf("re-run completion: fresh=%d err=%v", fresh, err)
	}
	res, err := sess.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleetReference(t, trials), res) {
		t.Error("result after steal + mismatch recovery diverged from single-node run")
	}
}

// TestFleetHeartbeatAfterReclamationIsNoOp: a heartbeat arriving after
// the worker was declared lost revives it without resurrecting its
// reclaimed leases, and once its late shard for a reclaimed lease
// commits, that range is not granted again: every trial merges exactly
// once.
func TestFleetHeartbeatAfterReclamationIsNoOp(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign fleet test")
	}
	const trials = 16
	clk := newFakeClock()
	reg := obs.NewRegistry()
	f := NewFleet(FleetConfig{
		HeartbeatInterval: time.Second,
		HeartbeatMisses:   3,
		LeaseTTL:          time.Hour, // only heartbeat loss reclaims here
		Metrics:           reg,
		Now:               clk.Now,
	})
	sess, spec := fleetSession(t, trials, 8, "")
	addFleetJob(f, "job-beat", spec, sess)
	if _, err := f.Register("w1", ""); err != nil {
		t.Fatal(err)
	}
	g1, err := f.Lease("w1")
	if err != nil || g1 == nil || g1.Lo != 0 || g1.Hi != 8 {
		t.Fatalf("grant = %+v, %v; want [0,8)", g1, err)
	}

	// Three missed beats: the worker is lost and its lease reclaimed.
	clk.Advance(3*time.Second + time.Millisecond)
	f.Tick()
	st := f.Snapshot()
	if st.WorkersLost != 1 || reg.Gauge("live.fleet_workers_lost").Value() != 1 {
		t.Fatalf("workers lost = %d (gauge %d), want 1", st.WorkersLost, reg.Gauge("live.fleet_workers_lost").Value())
	}
	if got := reg.Counter("fleet.leases_expired").Value(); got != 1 {
		t.Fatalf("leases_expired = %d, want 1", got)
	}

	// The late heartbeat revives the worker — and nothing else: the
	// reclaimed lease stays reclaimed.
	if err := f.Heartbeat("w1"); err != nil {
		t.Fatalf("late heartbeat: %v", err)
	}
	st = f.Snapshot()
	if st.WorkersLive != 1 || st.WorkersLost != 0 {
		t.Fatalf("after revival: live=%d lost=%d, want 1/0", st.WorkersLive, st.WorkersLost)
	}
	for _, l := range f.Snapshot().Leases {
		if l.ID == g1.LeaseID && l.State != LeaseExpired {
			t.Fatalf("revival resurrected the reclaimed lease: state = %s", l.State)
		}
	}

	// The revived worker's late shard for the reclaimed lease commits the
	// range (first data wins), so the next grant is the rest of the
	// campaign, not a duplicate of [0,8).
	if fresh, err := f.Complete("w1", g1.LeaseID, runShard(t, sess, 0, 8)); err != nil || fresh != 8 {
		t.Fatalf("late completion: fresh=%d err=%v", fresh, err)
	}
	rest, err := f.Lease("w1")
	if err != nil || rest == nil || rest.Lo != 8 || rest.Hi != 16 {
		t.Fatalf("final grant = %+v, %v; want [8,16)", rest, err)
	}
	if _, err := f.Complete("w1", rest.LeaseID, runShard(t, sess, 8, 16)); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTrials != trials {
		t.Fatalf("completed %d/%d trials", res.CompletedTrials, trials)
	}
	if !reflect.DeepEqual(fleetReference(t, trials), res) {
		t.Error("result after late-heartbeat recovery diverged from single-node run")
	}
}

// TestWorkerlessFleetRunsInProcess: with no worker registered, Fleet.Run
// runs every trial through the engine's own loop. The result is
// byte-identical to a single-node run, and no lease is booked.
func TestWorkerlessFleetRunsInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign fleet test")
	}
	const trials = 32
	f := NewFleet(FleetConfig{})
	sess, spec := fleetSession(t, trials, 0, "")
	res, err := f.Run(context.Background(), spec, sess)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleetReference(t, trials), res) {
		t.Error("workerless fleet result diverged from single-node run")
	}
	if leases := f.Snapshot().Leases; len(leases) != 0 {
		t.Errorf("workerless fleet booked leases: %+v", leases)
	}
}

// TestFleetLocalRemoteHandOff: one campaign runs partly on a remote
// worker and partly on the coordinator. The worker completes one lease,
// is lost holding a second, and the coordinator finishes the rest —
// the reclaimed range included — in process. The merge is still
// byte-identical to a single-node run, and the lease table holds only
// the worker's grants.
func TestFleetLocalRemoteHandOff(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign fleet test")
	}
	const trials = 32
	clk := newFakeClock()
	f := NewFleet(FleetConfig{
		HeartbeatInterval: time.Second,
		HeartbeatMisses:   3,
		LeaseTTL:          time.Hour, // only heartbeat loss reclaims here
		Now:               clk.Now,
	})
	if _, err := f.Register("w1", ""); err != nil {
		t.Fatal(err)
	}
	sess, spec := fleetSession(t, trials, 8, "")

	type outcome struct {
		res *fault.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run(context.Background(), spec, sess)
		done <- outcome{res, err}
	}()

	// The first grant arrives once the campaign has joined the fleet.
	var g1 *LeaseGrant
	for deadline := time.Now().Add(30 * time.Second); g1 == nil; time.Sleep(time.Millisecond) {
		var err error
		if g1, err = f.Lease("w1"); err != nil {
			t.Fatal(err)
		}
		if g1 == nil && time.Now().After(deadline) {
			t.Fatal("the campaign never joined the fleet's grant queue")
		}
	}
	if g1.Lo != 0 || g1.Hi != 8 {
		t.Fatalf("grant = %+v; want [0,8)", g1)
	}
	if fresh, err := f.Complete("w1", g1.LeaseID, runShard(t, sess, g1.Lo, g1.Hi)); err != nil || fresh != 8 {
		t.Fatalf("complete [0,8): fresh=%d err=%v", fresh, err)
	}
	g2, err := f.Lease("w1")
	if err != nil || g2 == nil || g2.Lo != 8 || g2.Hi != 16 {
		t.Fatalf("second grant = %+v, %v; want [8,16)", g2, err)
	}

	// Three missed beats: the worker is lost, its lease is reclaimed, and
	// the coordinator takes over.
	clk.Advance(3*time.Second + time.Millisecond)
	f.Tick()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !reflect.DeepEqual(fleetReference(t, trials), got.res) {
		t.Error("hand-off result diverged from single-node run")
	}
	st := f.Snapshot()
	if len(st.Workers) != 1 || st.Workers[0].Trials <= 0 || st.Workers[0].Trials >= trials {
		t.Fatalf("worker trials = %+v, want some but not all of %d", st.Workers, trials)
	}
	leases := f.Snapshot().Leases
	if len(leases) != 2 {
		t.Errorf("lease table holds %d leases, want the worker's 2: %+v", len(leases), leases)
	}
	for _, l := range leases {
		if l.Worker != "w1" {
			t.Errorf("lease %s held by %q, want only w1's grants", l.ID, l.Worker)
		}
	}
}

// stopHandler is a slog handler that counts the campaign's "trial
// complete" records, cancels after the given number of them (0: never),
// and keeps the messages of records at Warn or above.
type stopHandler struct {
	mu       sync.Mutex
	after    int
	cancel   context.CancelFunc
	trials   int
	warnings []string
}

func (h *stopHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *stopHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r.Message == "trial complete" {
		if h.trials++; h.trials == h.after {
			h.cancel()
		}
	}
	if r.Level >= slog.LevelWarn {
		h.warnings = append(h.warnings, r.Message)
	}
	return nil
}

func (h *stopHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *stopHandler) WithGroup(string) slog.Handler      { return h }

// TestFleetLocalRangeStoppedPartWay: a local range that stops part-way
// leaves its unrun trials pending in the session, so the next grant
// starts at the first pending trial, and the stop logs no warning. It
// covers both stops. A cancelled Session.Run leaves trials 3 on
// pending. An exhausted failure budget leaves the campaign owing
// nothing, so nothing is granted, until a revocation (the answer to a
// shard mismatch) makes trials pending again.
func TestFleetLocalRangeStoppedPartWay(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign fleet test")
	}
	p, _ := workload.ByName("gcc")
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
		sim    pipeline.Config
		budget int // failure budget; every baseline trial crashes
		cancel int // trials after which the run is cancelled
	}{
		{"cancelled", core.Turnpike, pipeline.TurnpikeConfig(4, 10), -1, 3},
		{"budget", core.Baseline, pipeline.BaselineConfig(4), 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			h := &stopHandler{after: tc.cancel, cancel: cancel}
			log := slog.New(h)
			c, err := core.Compile(p.Build(4), core.SchemeOptions(tc.scheme, 4))
			if err != nil {
				t.Fatal(err)
			}
			prep, err := fault.Prepare(context.Background(), c.Prog, fault.Config{Trials: 16, Seed: 5,
				Sim: tc.sim, Workers: 1, FailureBudget: tc.budget, Logger: log}, p.SeedMemory)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := prep.Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			f := NewFleet(FleetConfig{HeartbeatInterval: time.Hour, Logger: log, Now: newFakeClock().Now})
			fj := addFleetJob(f, "job-local", JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 16}, Lease: 8}, sess)

			if !f.runLocal(ctx, fj) {
				t.Fatal("a workerless fleet ran no local range")
			}
			if got := sess.Completed(); got != 3 {
				t.Fatalf("the local range [0,8) stopped after %d trials, want 3", got)
			}
			if _, err := f.Register("w1", ""); err != nil {
				t.Fatal(err)
			}
			want := fault.TrialRange{Lo: 3, Hi: 11}
			if tc.budget > 0 {
				if g, err := f.Lease("w1"); err != nil || g != nil {
					t.Fatalf("grant after the budget tripped = %+v, %v; want none", g, err)
				}
				if err := sess.Revoke(2, 3); err != nil {
					t.Fatal(err)
				}
				want = fault.TrialRange{Lo: 2, Hi: 10}
			}
			g, err := f.Lease("w1")
			if err != nil || g == nil || g.Lo != want.Lo || g.Hi != want.Hi {
				t.Fatalf("grant = %+v, %v; want %v", g, err, want)
			}
			if len(h.warnings) > 0 {
				t.Errorf("the stop logged warnings: %q", h.warnings)
			}
		})
	}
}

// TestReadyzReportsFleetHealth: /readyz stays 200 but reports a degraded
// reason and the fleet block once a registered worker is lost.
func TestReadyzReportsFleetHealth(t *testing.T) {
	clk := newFakeClock()
	fleet := NewFleet(FleetConfig{
		HeartbeatInterval: time.Second,
		HeartbeatMisses:   2,
		Now:               clk.Now,
	})
	s := newTestService(t, Config{Fleet: fleet})
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()

	type readyReply struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
		Fleet  *struct {
			WorkersLive int  `json:"workers_live"`
			WorkersLost int  `json:"workers_lost"`
			Degraded    bool `json:"degraded"`
		} `json:"fleet"`
	}
	readyz := func() (int, readyReply) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
		var rep readyReply
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return rr.Code, rep
	}

	if _, err := fleet.Register("w1", "10.0.0.2:9"); err != nil {
		t.Fatal(err)
	}
	code, rep := readyz()
	if code != http.StatusOK || !rep.Ready || rep.Reason != "" {
		t.Fatalf("healthy fleet: code=%d rep=%+v", code, rep)
	}
	if rep.Fleet == nil || rep.Fleet.WorkersLive != 1 || rep.Fleet.Degraded {
		t.Fatalf("healthy fleet block = %+v", rep.Fleet)
	}

	clk.Advance(2*time.Second + time.Millisecond)
	fleet.Tick()
	code, rep = readyz()
	if code != http.StatusOK || !rep.Ready {
		t.Fatalf("degraded coordinator must stay ready: code=%d rep=%+v", code, rep)
	}
	if !strings.Contains(rep.Reason, "degraded") {
		t.Fatalf("reason = %q, want a degraded report", rep.Reason)
	}
	if rep.Fleet == nil || rep.Fleet.WorkersLost != 1 || !rep.Fleet.Degraded {
		t.Fatalf("degraded fleet block = %+v", rep.Fleet)
	}
}

// TestIdleFleetDeclaresSilentWorkerLost: with no campaign running, so
// that nothing calls Tick, a worker that stops beating is reported lost
// one loss window (HeartbeatMisses beats) after its last heartbeat, by
// Snapshot, by /readyz and by the fleet gauges, while a worker that
// keeps beating stays live.
func TestIdleFleetDeclaresSilentWorkerLost(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	fleet := NewFleet(FleetConfig{
		HeartbeatInterval: time.Second,
		HeartbeatMisses:   3,
		Metrics:           reg,
		Now:               clk.Now,
	})
	s := newTestService(t, Config{Fleet: fleet})
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()
	for _, id := range []string{"silent", "beating"} {
		if _, err := fleet.Register(id, ""); err != nil {
			t.Fatal(err)
		}
	}
	lost := func() int {
		st := fleet.Snapshot()
		if st.WorkersLive+st.WorkersLost != 2 || reg.Gauge("live.fleet_workers_lost").Value() != int64(st.WorkersLost) {
			t.Fatalf("snapshot %d live, %d lost; gauge %d lost", st.WorkersLive, st.WorkersLost, reg.Gauge("live.fleet_workers_lost").Value())
		}
		return st.WorkersLost
	}
	for range 3 {
		clk.Advance(time.Second)
		if err := fleet.Heartbeat("beating"); err != nil {
			t.Fatal(err)
		}
	}
	if n := lost(); n != 0 {
		t.Fatalf("exactly one loss window after the last heartbeat: %d lost, want 0", n)
	}
	clk.Advance(time.Nanosecond)
	if n := lost(); n != 1 {
		t.Fatalf("past the loss window: %d lost, want 1", n)
	}
	for _, w := range fleet.Snapshot().Workers {
		if want := map[string]WorkerState{"silent": WorkerLost, "beating": WorkerLive}[w.ID]; w.State != want {
			t.Fatalf("worker %s is %s, want %s", w.ID, w.State, want)
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "degraded: 1 fleet worker(s) lost") {
		t.Fatalf("/readyz %d %s, want a degraded report", rr.Code, rr.Body)
	}
}

// TestSubmitLeaseValidation: a lease wider than the campaign is rejected
// at validation (HTTP 400), not silently clamped; lease == trials is the
// widest legal value.
func TestSubmitLeaseValidation(t *testing.T) {
	s := newTestService(t, Config{})
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 10}, Lease: -1}); err == nil {
		t.Error("negative lease accepted")
	}
	if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 10}, Lease: 11}); err == nil {
		t.Error("lease wider than the campaign accepted")
	}
	if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 10}, Lease: 10}); err != nil {
		t.Errorf("lease == trials rejected: %v", err)
	}

	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/jobs",
		strings.NewReader(`{"bench":"gcc","trials":10,"lease":20}`)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("oversized lease over HTTP: %d, want 400", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "exceeds") {
		t.Fatalf("400 body does not explain the clamp rejection: %s", rr.Body.String())
	}
}
