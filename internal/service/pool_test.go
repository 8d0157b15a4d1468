package service

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	turnpike "repro"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// freshResult runs spec's campaign from scratch in process: through
// turnpike.InjectFaults for a built-in benchmark, and through
// fault.Prepare on the admitted image for a submitted program.
func freshResult(t *testing.T, spec JobSpec, entry *artifact.Entry) *fault.Result {
	t.Helper()
	sc, err := core.ParseScheme(cmp.Or(spec.Scheme, "turnpike"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spec.Program(); !ok {
		res, err := turnpike.InjectFaults(spec.Bench, sc, turnpike.FaultCampaignConfig{Trials: spec.Trials,
			Seed: spec.Seed, SBSize: spec.SBSize, WCDL: spec.WCDL, ScalePct: spec.ScalePct,
			Workers: spec.Workers, FailureBudget: spec.FailureBudget})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	spec.SBSize = entry.SBSize
	_, cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = spec.Workers
	p, err := fault.Prepare(context.Background(), entry.Schemes[sc.String()], cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// storedKernel admits the front-door kernel to a fresh program store.
func storedKernel(t *testing.T) (*ProgramStore, *artifact.Entry) {
	t.Helper()
	store, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	f, steps, err := store.Validate(frontDoorKernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, entry, _, err := store.Put(context.Background(), "acme", frontDoorKernel, f, steps)
	if err != nil {
		t.Fatal(err)
	}
	return store, entry
}

// TestCampaignPoolReusesOnlyTheSameCampaign runs interleaved jobs through
// one CampaignPrepare and a workerless FleetExecutor: gcc at scale 5
// with seeds a, b; Turnstile gcc; gcc at seed a again; gcc with one
// runner, at another WCDL and at another scale; a submitted program
// twice; the other scale again, after its campaign was evicted; and gcc
// at scale 5 once more, after its campaign was evicted too. Each job's
// Result must be byte-identical to a fresh campaign of its spec, and the
// pool must reuse exactly the campaigns an earlier job of the same
// workload, scheme, simulator configuration and runner count left,
// within its bound of two, evicting a campaign never reused before one
// that was. A key without the scale runs the last two jobs on the other
// scale's golden state; one without the simulator configuration (and
// so the WCDL and the scheme's hardware) or the runner count hands a
// job a campaign Reuse refuses.
func TestCampaignPoolReusesOnlyTheSameCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaigns")
	}
	store, entry := storedKernel(t)
	reg := obs.NewRegistry()
	fe := &FleetExecutor{Fleet: NewFleet(FleetConfig{}), Prepare: CampaignPrepare(reg, nil, store.Entry)}
	gcc := func(seed int64) JobSpec {
		return JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 24, Seed: seed, ScalePct: 5, FailureBudget: -1},
			Workers: 2}
	}
	turnstile, workers, wcdl, scale4 := gcc(1), gcc(1), gcc(1), gcc(1)
	turnstile.Scheme = "turnstile"
	workers.Workers = 1
	wcdl.WCDL = 20
	scale4.ScalePct = 4
	program := func(seed int64) JobSpec {
		return JobSpec{Spec: fault.Spec{Bench: fault.ProgramPrefix + entry.Fingerprint, Trials: 24, Seed: seed,
			FailureBudget: -1}, Workers: 2}
	}
	scale4b := scale4
	scale4b.Seed = 2
	dir := t.TempDir()
	for i, job := range []struct {
		spec   JobSpec
		reused bool
	}{
		{gcc(1), false},
		{gcc(2), true},
		{turnstile, false},
		{gcc(1), true},
		{workers, false}, // evicts Turnstile's, never reused: the pool holds two
		{wcdl, false},    // evicts the one-runner campaign; gcc's, reused, stays
		{scale4, false},  // evicts the WCDL 20 campaign
		{program(1), false},
		{program(2), true},
		{scale4b, false}, // scale 4's went at program(1); now gcc's goes, all others reused
		{gcc(3), false},
	} {
		before := reg.Snapshot().Counters["service.prepare_reused"]
		got, err := fe.Execute(context.Background(), job.spec, filepath.Join(dir, fmt.Sprintf("job%d.ckpt", i)))
		if err != nil {
			t.Fatalf("job %d (%+v): %v", i, job.spec, err)
		}
		if reused := reg.Snapshot().Counters["service.prepare_reused"] > before; reused != job.reused {
			t.Errorf("job %d (%+v): reused = %v, want %v", i, job.spec, reused, job.reused)
		}
		if want := freshResult(t, job.spec, entry); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d (%+v): result differs from a fresh campaign of its spec", i, job.spec)
		}
	}
	snap := reg.Snapshot()
	if r, f := snap.Counters["service.prepare_reused"], snap.Counters["service.prepare_fresh"]; r != 3 || f != 8 {
		t.Errorf("prepare_reused = %d, prepare_fresh = %d; want 3 and 8", r, f)
	}
}

// TestCampaignPoolOutlastsOneOffPrograms: gcc, then two jobs of two
// submitted programs, then gcc again. The second program's return
// evicts the first program's campaign, not gcc's, though neither was
// ever reused, so the last job reuses gcc's campaign. Least recently
// returned eviction dropped it.
func TestCampaignPoolOutlastsOneOffPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaigns")
	}
	store, a := storedKernel(t)
	f, steps, err := store.Validate(kernelVariant("#128"), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _, err := store.Put(context.Background(), "acme", kernelVariant("#128"), f, steps)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fe := &FleetExecutor{Fleet: NewFleet(FleetConfig{}), Prepare: CampaignPrepare(reg, nil, store.Entry)}
	gcc := JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 24, Seed: 1, ScalePct: 5, FailureBudget: -1}, Workers: 2}
	program := func(e *artifact.Entry) JobSpec {
		return JobSpec{Spec: fault.Spec{Bench: fault.ProgramPrefix + e.Fingerprint, Trials: 24, Seed: 1,
			FailureBudget: -1}, Workers: 2}
	}
	dir := t.TempDir()
	for i, job := range []struct {
		spec   JobSpec
		entry  *artifact.Entry
		reused bool
	}{{gcc, nil, false}, {program(a), a, false}, {program(b), b, false}, {gcc, nil, true}} {
		before := reg.Snapshot().Counters["service.prepare_reused"]
		got, err := fe.Execute(context.Background(), job.spec, filepath.Join(dir, fmt.Sprintf("job%d.ckpt", i)))
		if err != nil {
			t.Fatalf("job %d (%+v): %v", i, job.spec, err)
		}
		if reused := reg.Snapshot().Counters["service.prepare_reused"] > before; reused != job.reused {
			t.Errorf("job %d (%s): reused = %v, want %v", i, job.spec.Bench, reused, job.reused)
		}
		if want := freshResult(t, job.spec, job.entry); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d (%s): result differs from a fresh campaign of its spec", i, job.spec.Bench)
		}
	}
}

// TestCampaignPoolConcurrentJobs submits one spec twice at once to a
// service running two jobs concurrently, and holds each job's campaign
// until the other job holds one too. A campaign serves one job at a
// time, so the first round prepares two; both return to the pool, and
// the second round reuses both. Every result must be exact. Run under
// -race.
func TestCampaignPoolConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaigns")
	}
	reg := obs.NewRegistry()
	prepare := CampaignPrepare(reg, nil, nil)
	var mu sync.Mutex
	held, both := 0, make(chan struct{})
	fleet := NewFleet(FleetConfig{})
	s := newTestService(t, Config{Concurrency: 2, Fleet: fleet, Executor: &FleetExecutor{Fleet: fleet,
		Prepare: func(ctx context.Context, spec JobSpec, ckpt string) (*fault.Prepared, func(), error) {
			p, release, err := prepare(ctx, spec, ckpt)
			mu.Lock()
			held++
			ch := both
			if held == 2 {
				close(ch)
			}
			mu.Unlock()
			<-ch
			return p, release, err
		}}})
	s.Start()
	defer s.Shutdown(context.Background())
	spec := JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 96, Seed: 9, ScalePct: 5, FailureBudget: -1}, Workers: 2}
	want := freshResult(t, spec, nil)
	for round := 0; round < 2; round++ {
		mu.Lock()
		held, both = 0, make(chan struct{})
		mu.Unlock()
		var ids []string
		for range 2 {
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
		for _, id := range ids {
			if got := waitState(t, s, id, StateDone).Result; !reflect.DeepEqual(got, want) {
				t.Errorf("round %d job %s: result differs from turnpike.InjectFaults", round, id)
			}
		}
	}
	snap := reg.Snapshot()
	if r, f := snap.Counters["service.prepare_reused"], snap.Counters["service.prepare_fresh"]; r != 2 || f != 2 {
		t.Errorf("prepare_reused = %d, prepare_fresh = %d; want 2 and 2", r, f)
	}
}

// TestWorkerLeasesShareThePool runs the leases of two jobs of one
// campaign on one worker's PrepareFunc — job A's and job B's, back to
// back and then interleaved — through the worker's own preparedFor,
// which takes a campaign from the pool for each lease and checks its
// golden fingerprint every time. Both merged results must be
// byte-identical to a single node's, every lease after the first must
// reuse the campaign, and a grant whose fingerprint disagrees is still
// refused, also when the pool holds the campaign.
func TestWorkerLeasesShareThePool(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaigns")
	}
	reg := obs.NewRegistry()
	w, err := NewWorkerClient(WorkerConfig{Coordinator: "http://127.0.0.1:1",
		Prepare: CampaignPrepare(reg, nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	specA := JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 32, Seed: 5, ScalePct: 4, FailureBudget: -1}, Workers: 2}
	specB := specA
	specB.Seed = 6
	type job struct {
		id   string
		spec JobSpec
		sess *fault.Session
	}
	var jobs []*job
	for i, spec := range []JobSpec{specA, specB} {
		p, _, err := CampaignPrepare(nil, nil, nil)(context.Background(), spec, "")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := p.Open(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, &job{id: string(rune('A' + i)), spec: spec, sess: sess})
	}
	grant := func(j *job, lo, hi int) *LeaseGrant {
		g := j.sess.GoldenStats()
		return &LeaseGrant{LeaseID: j.id, JobID: j.id, Spec: j.spec, Lo: lo, Hi: hi,
			GoldenCycles: g.Cycles, GoldenInsts: g.Insts}
	}
	a, b := jobs[0], jobs[1]
	var leases []*LeaseGrant
	for lo := 0; lo < 16; lo += 8 { // back to back: A, A, B, B
		leases = append(leases, grant(a, lo, lo+8))
	}
	for lo := 0; lo < 16; lo += 8 {
		leases = append(leases, grant(b, lo, lo+8))
	}
	for lo := 16; lo < 32; lo += 8 { // interleaved: A, B, A, B
		leases = append(leases, grant(a, lo, lo+8), grant(b, lo, lo+8))
	}
	ctx := context.Background()
	for i, g := range leases {
		p, release, err := w.preparedFor(ctx, g)
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		sh, err := p.RunRange(ctx, g.Lo, g.Hi)
		release()
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		sess := a.sess
		if g.JobID == b.id {
			sess = b.sess
		}
		if _, err := sess.Commit(sh); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	if r, f := snap.Counters["service.prepare_reused"], snap.Counters["service.prepare_fresh"]; r != uint64(len(leases)-1) || f != 1 {
		t.Errorf("prepare_reused = %d, prepare_fresh = %d; want %d and 1", r, f, len(leases)-1)
	}
	for _, j := range jobs {
		got, err := j.sess.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshResult(t, j.spec, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("job %s: result differs from a single node's", j.id)
		}
	}

	bad := grant(a, 0, 8)
	bad.GoldenCycles++
	_, _, err = w.preparedFor(ctx, bad)
	if err == nil || Classify(err) != Permanent {
		t.Fatalf("a grant with another golden fingerprint got %v, want a permanent refusal", err)
	}
	if reg.Snapshot().Counters["service.prepare_reused"] != uint64(len(leases)) {
		t.Fatal("the refused grant did not take its campaign from the pool")
	}
	// The refused lease released the campaign: the next lease reuses it.
	_, release, err := w.preparedFor(ctx, grant(a, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	release()
	if reg.Snapshot().Counters["service.prepare_reused"] != uint64(len(leases)+1) {
		t.Fatal("the campaign did not return to the pool after the refused grant")
	}
}

// TestCampaignPoolHandsOnExclusively: a campaign a job released serves
// the next job of the same campaign, and the handle the first job held
// runs nothing more, so a late caller cannot race the new owner.
func TestCampaignPoolHandsOnExclusively(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaigns")
	}
	prepare := CampaignPrepare(nil, nil, nil)
	spec := JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 16, Seed: 1, ScalePct: 4, FailureBudget: -1}, Workers: 2}
	first, release, err := prepare(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	release()
	spec.Seed = 2
	second, release, err := prepare(context.Background(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if first == second {
		t.Fatal("the pool handed out the same handle twice")
	}
	if _, err := first.RunRange(context.Background(), 0, 4); err == nil {
		t.Fatal("the released handle still runs trials")
	}
	if _, err := second.RunRange(context.Background(), 0, 4); err != nil {
		t.Fatal(err)
	}
}
