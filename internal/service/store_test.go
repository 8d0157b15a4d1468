package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/tenant"
)

// readJobLog parses every line of dir's job log, which must end on a
// complete line.
func readJobLog(t *testing.T, dir string) []Job {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 0 && b[len(b)-1] != '\n' {
		t.Fatalf("job log ends inside a line:\n%s", b)
	}
	var jobs []Job
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		var j Job
		if err := json.Unmarshal(line, &j); err != nil {
			t.Fatalf("job log line does not parse: %v\n%s", err, line)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// readProgramLog returns the fingerprints of dir's program log, line by
// line; the log must end on a complete line.
func readProgramLog(t *testing.T, dir string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "programs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 0 && b[len(b)-1] != '\n' {
		t.Fatalf("program log ends inside a line:\n%s", b)
	}
	var fps []string
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		var m Program
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("program log line does not parse: %v\n%s", err, line)
		}
		fps = append(fps, m.Fingerprint)
	}
	return fps
}

// kernelVariant is frontDoorKernel with another loop bound: another
// program, with another fingerprint.
func kernelVariant(bound string) string {
	return strings.Replace(frontDoorKernel, "#64", bound, 1)
}

// admit validates and stores one program source.
func admit(t *testing.T, store *ProgramStore, source string) *Program {
	t.Helper()
	f, steps, err := store.Validate(source, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, _, err := store.Put(context.Background(), "acme", source, f, steps)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestJobLogTornTail: a daemon killed during an append leaves the job
// log's last line unterminated. Cut anywhere inside its last line, the
// log loads the jobs of the lines before it, and the next submission's
// line starts on a line of its own.
func TestJobLogTornTail(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{StateDir: dir})
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 3, Seed: seed}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	for cut := last + 1; cut < len(valid); cut++ {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "jobs.jsonl"), valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{StateDir: d, Executor: execFunc(instantExec)})
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(valid), err)
		}
		if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != "job-000001" || jobs[0].Spec.Seed != 1 {
			t.Fatalf("cut at byte %d of %d: jobs %+v, want job-000001 alone", cut, len(valid), jobs)
		}
		if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 3, Seed: 3}}); err != nil {
			t.Fatal(err)
		}
		s.Shutdown(context.Background())
		if got := readJobLog(t, d); len(got) != 2 || got[0].Spec.Seed != 1 || got[1].Spec.Seed != 3 {
			t.Fatalf("cut at byte %d of %d: log holds %+v, want the seed-1 and seed-3 jobs", cut, len(valid), got)
		}
	}
}

// TestProgramLogTornTail: the program log's torn last line is dropped
// the same way, and the next admission's line starts on a line of its
// own.
func TestProgramLogTornTail(t *testing.T) {
	cache := artifact.NewCache(0, nil)
	dir := t.TempDir()
	store, err := NewProgramStore(ProgramStoreConfig{Dir: dir, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	a := admit(t, store, frontDoorKernel)
	b := admit(t, store, kernelVariant("#128"))
	valid, err := os.ReadFile(filepath.Join(dir, "programs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	for cut := last + 1; cut < len(valid); cut++ {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "programs.jsonl"), valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, a.Fingerprint+".ir"), []byte(frontDoorKernel), 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := NewProgramStore(ProgramStoreConfig{Dir: d, Cache: cache})
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(valid), err)
		}
		if got := store.List(); len(got) != 1 || got[0].Fingerprint != a.Fingerprint {
			t.Fatalf("cut at byte %d of %d: programs %+v, want %s alone", cut, len(valid), got, a.Fingerprint)
		}
		admit(t, store, kernelVariant("#128"))
		if got := readProgramLog(t, d); len(got) != 2 || got[0] != a.Fingerprint || got[1] != b.Fingerprint {
			t.Fatalf("cut at byte %d of %d: log holds %v, want %s then %s", cut, len(valid), got, a.Fingerprint, b.Fingerprint)
		}
	}
}

// TestFailedAppendRewrites: once an append fails, the file may end
// inside a line, so the next persist rewrites the log from memory
// instead of appending after it. The append fails because the test
// closes the log's descriptor under the store, and a partial line
// stands in for the bytes a short write leaves.
func TestFailedAppendRewrites(t *testing.T) {
	tornLine := []byte(`{"id":"job-0000`)
	breakLog := func(t *testing.T, close func() error, path string) {
		t.Helper()
		if err := close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tornLine); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	t.Run("jobs", func(t *testing.T) {
		dir := t.TempDir()
		s := newTestService(t, Config{StateDir: dir})
		defer s.Shutdown(context.Background())
		submit := func(seed int64) (*Job, error) {
			return s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 3, Seed: seed}})
		}
		if _, err := submit(1); err != nil {
			t.Fatal(err)
		}
		breakLog(t, s.jobLog.Close, filepath.Join(dir, "jobs.jsonl"))
		if _, err := submit(2); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("submit over a closed log: %v, want the append's error", err)
		}
		if j, err := submit(3); err != nil || j.ID != "job-000003" {
			t.Fatalf("submit after the failed append: %+v, %v", j, err)
		}
		if _, err := submit(4); err != nil {
			t.Fatal(err)
		}
		got := readJobLog(t, dir)
		if len(got) != 3 || got[0].ID != "job-000001" || got[1].ID != "job-000003" || got[2].ID != "job-000004" {
			t.Fatalf("log holds %+v, want job-000001, job-000003 and job-000004", got)
		}
	})
	t.Run("programs", func(t *testing.T) {
		dir := t.TempDir()
		store, err := NewProgramStore(ProgramStoreConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		a := admit(t, store, frontDoorKernel)
		breakLog(t, store.file.Close, filepath.Join(dir, "programs.jsonl"))
		src := kernelVariant("#128")
		f, steps, err := store.Validate(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		meta, _, _, err := store.Put(context.Background(), "acme", src, f, steps)
		if !errors.Is(err, errProgramStorage) {
			t.Fatalf("admission over a closed log: %v, want errProgramStorage", err)
		}
		fp := artifact.Fingerprint(f)
		if _, ok := store.Get(fp); ok || meta != nil {
			t.Fatal("the admission whose line failed was not rolled back")
		}
		if _, err := os.Stat(filepath.Join(dir, fp+".ir")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("the rolled-back program's source is left: %v", err)
		}
		c := admit(t, store, kernelVariant("#256"))
		b := admit(t, store, src)
		if got := readProgramLog(t, dir); len(got) != 3 || got[0] != a.Fingerprint ||
			got[1] != c.Fingerprint || got[2] != b.Fingerprint {
			t.Fatalf("log holds %v, want %s, %s, %s", got, a.Fingerprint, c.Fingerprint, b.Fingerprint)
		}
	})
}

// TestFreshStateDirHoldsNoFile: booting a service and a program store
// over an empty state dir writes no file; the first submission and the
// first admission create the logs.
func TestFreshStateDirHoldsNoFile(t *testing.T) {
	dir := t.TempDir()
	store, err := NewProgramStore(ProgramStoreConfig{Dir: filepath.Join(dir, "programs")})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, LocalFleet(Config{StateDir: dir, Programs: store}, nil, store.Entry))
	defer s.Shutdown(context.Background())
	files := func() []string {
		var out []string
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				out = append(out, path)
			}
			return err
		})
		return out
	}
	if got := files(); len(got) != 0 {
		t.Fatalf("a fresh boot wrote %v", got)
	}
	if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 3}}); err != nil {
		t.Fatal(err)
	}
	admit(t, store, frontDoorKernel)
	if got := readJobLog(t, dir); len(got) != 1 {
		t.Errorf("job log after one submission holds %d lines", len(got))
	}
	if got := readProgramLog(t, filepath.Join(dir, "programs")); len(got) != 1 {
		t.Errorf("program log after one admission holds %d lines", len(got))
	}
}

// TestParentLayoutBootsUnchanged: a state dir in the layout of the
// daemons before the logs — one jobs/<id>.json per job (a done job and a
// queued job of a stored program) and programs/programs.json beside the
// program's source — boots with the same jobs, programs and tenant
// quotas, and the queued job finishes byte-identical to a fresh
// campaign. The old files are renamed aside once the logs hold their
// records, so a second boot, with them gone, reads the same store from
// the logs alone.
func TestParentLayoutBootsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign")
	}
	dir := t.TempDir()
	progDir := filepath.Join(dir, "programs")
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(progDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeJSON := func(path string, v any, indent bool) {
		t.Helper()
		b, err := json.Marshal(v)
		if indent {
			b, err = json.MarshalIndent(v, "", "  ")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	probe, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	f, steps, err := probe.Validate(frontDoorKernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	prog := &Program{Fingerprint: artifact.Fingerprint(f), Name: f.Name, TenantID: "acme", SBSize: 4,
		Blocks: 3, Instrs: 9, VRegs: 4, SourceBytes: len(frontDoorKernel), Steps: steps, SubmittedAt: at}
	if err := os.WriteFile(filepath.Join(progDir, prog.Fingerprint+".ir"), []byte(frontDoorKernel), 0o644); err != nil {
		t.Fatal(err)
	}
	writeJSON(filepath.Join(progDir, "programs.json"), map[string]any{"version": 1, "programs": []*Program{prog}}, true)
	done := &Job{ID: "job-000001", Spec: JobSpec{Spec: fault.Spec{Bench: "gcc", Scheme: "turnpike", Trials: 3}},
		State: StateDone, Attempts: 1, Checkpoint: "job-000001.ckpt.json",
		Result:      &fault.Result{CompletedTrials: 3, Outcomes: map[fault.Outcome]int{fault.Masked: 3}},
		SubmittedAt: at, StartedAt: at, FinishedAt: at}
	queued := &Job{ID: "job-000002", Spec: JobSpec{Spec: fault.Spec{Bench: fault.ProgramPrefix + prog.Fingerprint,
		Scheme: "turnpike", Trials: 12, Seed: 5, SBSize: 4, FailureBudget: -1}, Workers: 2},
		State: StateQueued, TenantID: "acme", Checkpoint: "job-000002.ckpt.json", SubmittedAt: at}
	writeJSON(filepath.Join(dir, "jobs", "job-000001.json"), done, false)
	writeJSON(filepath.Join(dir, "jobs", "job-000002.json"), queued, false)

	boot := func() (*Service, *tenant.Registry, *ProgramStore) {
		t.Helper()
		store, err := NewProgramStore(ProgramStoreConfig{Dir: progDir})
		if err != nil {
			t.Fatal(err)
		}
		reg, err := tenant.New([]tenant.Tenant{{ID: "acme", Key: "k"}})
		if err != nil {
			t.Fatal(err)
		}
		return newTestService(t, LocalFleet(Config{StateDir: dir, Programs: store, Tenants: reg}, nil, store.Entry)),
			reg, store
	}
	same := func(what string, got, want any) {
		t.Helper()
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s boots as\n%s\nwant\n%s", what, g, w)
		}
	}

	s, reg, store := boot()
	jobs := s.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs %+v, want job-000001 and job-000002", jobs)
	}
	same("the done job", jobs[0], done)
	same("the queued job", jobs[1], queued)
	same("the program store", store.List(), []*Program{prog})
	if j, p := reg.Usage("acme"); j != 1 || p != 1 {
		t.Errorf("tenant usage: %d jobs, %d programs; want 1 and 1", j, p)
	}
	s.Start()
	finished := waitState(t, s, queued.ID, StateDone)
	entry, err := store.Entry(context.Background(), prog.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(finished.Result)
	want, _ := json.Marshal(freshResult(t, queued.Spec, entry))
	if !bytes.Equal(got, want) {
		t.Errorf("the migrated queued job finished with\n%s\nwant\n%s", got, want)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"jobs", "jobs.json", "programs/programs.json"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s left after the migration: %v", gone, err)
		}
	}
	for _, kept := range []string{"jobs.migrated/job-000001.json", "jobs.migrated/job-000002.json", "programs/programs.json.migrated"} {
		if _, err := os.Stat(filepath.Join(dir, kept)); err != nil {
			t.Errorf("old layout not kept aside: %v", err)
		}
	}

	os.RemoveAll(filepath.Join(dir, "jobs.migrated"))
	os.Remove(filepath.Join(progDir, "programs.json.migrated"))
	s2, reg2, store2 := boot()
	defer s2.Shutdown(context.Background())
	jobs = s2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("second boot: jobs %+v, want job-000001 and job-000002", jobs)
	}
	same("the done job", jobs[0], done)
	same("the finished job", jobs[1], finished)
	same("the program store", store2.List(), []*Program{prog})
	if j, p := reg2.Usage("acme"); j != 0 || p != 1 {
		t.Errorf("second boot: tenant usage %d jobs, %d programs; want 0 and 1", j, p)
	}
	if next, err := s2.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc"}}); err != nil || next.ID != "job-000003" {
		t.Errorf("next submission = %+v, %v; want job-000003", next, err)
	}
}
