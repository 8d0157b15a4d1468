package service

// Front-door acceptance tests: the full submit → compile → campaign
// path over HTTP, the shared POST body-cap contract, the tenant
// auth/validation/backpressure status mapping, and the restart
// recompile-on-demand path.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// frontDoorKernel is a self-initializing dot-product-style kernel:
// loads from zeroed memory, accumulates, stores the result. What a
// tenant would actually submit.
const frontDoorKernel = `func dot
b0: -> b1
    movi v0, #0
    movi v1, #0
b1: -> b2 b1
    ld v2, [v1, #0]
    ld v3, [v1, #1024]
    mul v2, v2, v3
    add v0, v0, v2
    add v1, v1, #8
    blt v1, #64
b2:
    st v0, [v1, #4096]
    halt
`

// frontDoorKernelMessy is the same program with scrambled whitespace —
// canonically identical, so it must hit the cache.
const frontDoorKernelMessy = "func dot\n\nb0:   ->  b1\n  movi v0, #0\n\tmovi v1, #0\n" +
	"b1: -> b2 b1\n    ld v2, [v1, #0]\n    ld v3, [v1, #1024]\n    mul v2, v2, v3\n" +
	"    add v0, v0, v2\n    add v1, v1, #8\n    blt v1, #64\nb2:\n    st v0, [v1, #4096]\n    halt\n"

// doHTTP drives one request through a mounted service handler.
func doHTTP(h http.Handler, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	h.ServeHTTP(rr, req)
	return rr
}

// TestFrontDoorSubmitCompileCampaignE2E is the tentpole acceptance
// test: submit IR over HTTP, get it compiled under every scheme inside
// the admission envelope, campaign it via "program:<fingerprint>"
// through the unchanged engine, prove a resubmission is a pure cache
// hit (zero new compiles), and prove worker-count independence of the
// campaign result.
func TestFrontDoorSubmitCompileCampaignE2E(t *testing.T) {
	reg, err := tenant.New([]tenant.Tenant{
		{ID: "acme", Key: "acme-key", Quotas: tenant.Quotas{RatePerSec: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, LocalFleet(Config{Tenants: reg, Programs: store}, nil, store.Entry))
	s.Start()
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()
	key := map[string]string{"X-API-Key": "acme-key"}

	// Submit: 201, all three schemes compiled, exactly one compile.
	rr := doHTTP(h, "POST", "/programs", frontDoorKernel, key)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body.String())
	}
	var resp ProgramResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	fp := resp.Fingerprint
	if !artifact.ValidFingerprint(fp) {
		t.Fatalf("fingerprint %q is not 32 hex chars", fp)
	}
	if resp.Cached {
		t.Error("first submission reported cached")
	}
	if want := []string{"baseline", "turnstile", "turnpike"}; fmt.Sprint(resp.Schemes) != fmt.Sprint(want) {
		t.Errorf("schemes = %v, want %v", resp.Schemes, want)
	}
	if resp.Workload != "program:"+fp {
		t.Errorf("workload = %q", resp.Workload)
	}
	if resp.Cache.Compiles != 1 {
		t.Errorf("compiles after first submit = %d, want 1", resp.Cache.Compiles)
	}
	if resp.TenantID != "acme" {
		t.Errorf("program tenant = %q, want acme", resp.TenantID)
	}

	// Resubmit a formatting variant: canonical identity, so 200 + cached
	// with zero new compiles — the single-flight/cache-hit proof.
	rr = doHTTP(h, "POST", "/programs", frontDoorKernelMessy, key)
	if rr.Code != http.StatusOK {
		t.Fatalf("resubmit: %d %s", rr.Code, rr.Body.String())
	}
	var resp2 ProgramResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.Fingerprint != fp {
		t.Fatalf("resubmit: cached=%v fp=%s, want cached hit of %s", resp2.Cached, resp2.Fingerprint, fp)
	}
	if resp2.Cache.Compiles != 1 {
		t.Errorf("compiles after resubmit = %d, want still 1", resp2.Cache.Compiles)
	}

	// Campaign the program, workers 1 vs 8: byte-identical results.
	campaign := func(workers int) []byte {
		spec := fmt.Sprintf(`{"bench":"program:%s","trials":80,"seed":11,"workers":%d,"failure_budget":-1}`, fp, workers)
		rr := doHTTP(h, "POST", "/jobs", spec, key)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("job submit (workers=%d): %d %s", workers, rr.Code, rr.Body.String())
		}
		var j Job
		if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		if j.TenantID != "acme" {
			t.Errorf("job tenant = %q, want acme", j.TenantID)
		}
		done := waitState(t, s, j.ID, StateDone)
		if done.Result == nil {
			t.Fatal("done job has no result")
		}
		if done.Result.CompletedTrials != 80 {
			t.Errorf("completed trials = %d, want 80", done.Result.CompletedTrials)
		}
		if sdc := done.Result.Outcomes[fault.SDC]; sdc != 0 {
			t.Errorf("workers=%d: %d SDC trials, want 0", workers, sdc)
		}
		b, err := json.Marshal(done.Result)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := campaign(1)
	eight := campaign(8)
	if string(one) != string(eight) {
		t.Error("campaign results diverge between workers=1 and workers=8")
	}

	// The job quota slots were all returned at completion.
	if jobs, programs := reg.Usage("acme"); jobs != 0 || programs != 1 {
		t.Errorf("usage after campaigns = %d jobs, %d programs; want 0, 1", jobs, programs)
	}
}

// TestFrontDoorAdversarialContainmentZeroSDC proves the paper's
// containment invariant holds for front-door programs too: under an
// imperfect detection mesh (late detections, a dead sensor, bursts),
// a submitted program's campaign yields zero silent corruptions —
// every missed detection lands as a DUE or recovery, never an SDC.
func TestFrontDoorAdversarialContainmentZeroSDC(t *testing.T) {
	store, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	f, steps, err := store.Validate(frontDoorKernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, entry, cached, err := store.Put(context.Background(), "acme", frontDoorKernel, f, steps)
	if err != nil || cached {
		t.Fatalf("put: cached=%v err=%v", cached, err)
	}
	res, err := runAdversarial(t, entry)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strikes == 0 || res.MissedDetections == 0 {
		t.Fatalf("adversary inert (strikes=%d missed=%d); the invariant was not exercised",
			res.Strikes, res.MissedDetections)
	}
	if sdc := res.Outcomes[fault.SDC]; sdc != 0 {
		t.Fatalf("%d SDC trials under containment, want 0 (outcomes: %v)", sdc, res.Outcomes)
	}
	t.Logf("adversarial outcomes: %v (strikes=%d, missed=%d)", res.Outcomes, res.Strikes, res.MissedDetections)
}

func runAdversarial(t *testing.T, entry *artifact.Entry) (*fault.Result, error) {
	t.Helper()
	spec := fault.Spec{Bench: fault.ProgramPrefix + entry.Fingerprint, Trials: 200, Seed: 23,
		SBSize: entry.SBSize, FailureBudget: -1,
		Adversary: &fault.Adversary{MissProb: 0.3, DeadSensors: 1, BurstMax: 2}}
	_, cfg, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	p, err := fault.Prepare(context.Background(), entry.Schemes["turnpike"], cfg, nil)
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background())
}

// TestPostRoutesBodyCap413 pins the shared POST error contract: every
// POST route — tenant-facing and fleet — rejects a body over
// Config.MaxBodyBytes with 413 and a JSON error, and still accepts a
// small body (whatever its semantic status).
func TestPostRoutesBodyCap413(t *testing.T) {
	store, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{
		MaxBodyBytes: 256,
		Fleet:        NewFleet(FleetConfig{}),
		Programs:     store,
	})
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()

	// A syntactically open JSON object: the decoder cannot fail on
	// malformed input before the cap trips, so the 413 is unambiguous.
	big := `{"bench":"` + strings.Repeat("a", 4096) + `"}`
	small := `{"bench":"gcc"}`
	routes := []struct {
		path  string
		small string
	}{
		{"/jobs", small},
		{"/programs", frontDoorKernel},
		{"/fleet/workers", `{"id":""}`},
		{"/fleet/heartbeat", `{"worker_id":"w"}`},
		{"/fleet/lease", `{"worker_id":"w"}`},
		{"/fleet/complete", `{"worker_id":"w","lease_id":"l"}`},
	}
	for _, rt := range routes {
		t.Run(rt.path, func(t *testing.T) {
			rr := doHTTP(h, "POST", rt.path, big, nil)
			if rr.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: %d %s, want 413", rr.Code, rr.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("413 body is not a JSON error: %v %s", err, rr.Body.String())
			}
			if !strings.Contains(e.Error, "256") {
				t.Errorf("413 error does not name the limit: %q", e.Error)
			}
			if rr := doHTTP(h, "POST", rt.path, rt.small, nil); rr.Code == http.StatusRequestEntityTooLarge {
				t.Fatalf("small body rejected 413: %s", rr.Body.String())
			}
		})
	}
}

// TestFrontDoorAuthAndValidation pins the rest of the submission status
// contract: 401 without a key once tenants are configured, 422 for IR
// that fails the admission envelope, 400/404 for bad program workload
// references, and the JSON submission wrapper.
func TestFrontDoorAuthAndValidation(t *testing.T) {
	reg, err := tenant.New([]tenant.Tenant{
		{ID: "acme", Key: "k1", Quotas: tenant.Quotas{RatePerSec: -1, StepBudget: 10_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Tenants: reg, Programs: store})
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()
	key := map[string]string{"X-API-Key": "k1"}

	// No key (tenants configured): 401 on both mutating routes.
	if rr := doHTTP(h, "POST", "/programs", frontDoorKernel, nil); rr.Code != http.StatusUnauthorized {
		t.Errorf("keyless program submit: %d, want 401", rr.Code)
	}
	if rr := doHTTP(h, "POST", "/jobs", `{"bench":"gcc"}`, nil); rr.Code != http.StatusUnauthorized {
		t.Errorf("keyless job submit: %d, want 401", rr.Code)
	}
	if rr := doHTTP(h, "POST", "/programs", frontDoorKernel, map[string]string{"X-API-Key": "wrong"}); rr.Code != http.StatusUnauthorized {
		t.Errorf("wrong key: %d, want 401", rr.Code)
	}

	// Malformed IR: 422.
	if rr := doHTTP(h, "POST", "/programs", "this is not IR", key); rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("malformed IR: %d, want 422", rr.Code)
	}
	// A program that never halts burns its step budget: 422, and the
	// error names the budget failure.
	spin := "func spin\nb0: -> b0\n    movi v0, #1\n    jmp\n"
	rr := doHTTP(h, "POST", "/programs", spin, key)
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("non-halting program: %d, want 422", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "step") {
		t.Errorf("step-budget rejection does not say why: %s", rr.Body.String())
	}

	// JSON wrapper submission.
	wrapped, _ := json.Marshal(ProgramSubmitRequest{Source: frontDoorKernel})
	rr = doHTTP(h, "POST", "/programs", string(wrapped),
		map[string]string{"X-API-Key": "k1", "Content-Type": "application/json"})
	if rr.Code != http.StatusCreated {
		t.Fatalf("JSON-wrapped submit: %d %s", rr.Code, rr.Body.String())
	}
	var resp ProgramResponse
	json.Unmarshal(rr.Body.Bytes(), &resp)
	if rr := doHTTP(h, "POST", "/programs", `{"nope":1}`,
		map[string]string{"X-API-Key": "k1", "Content-Type": "application/json"}); rr.Code != http.StatusBadRequest {
		t.Errorf("JSON wrapper without source: %d, want 400", rr.Code)
	}

	// Program reads: list, meta, source round-trip, unknown 404s.
	if rr := doHTTP(h, "GET", "/programs", "", nil); rr.Code != http.StatusOK ||
		!strings.Contains(rr.Body.String(), resp.Fingerprint) {
		t.Errorf("program list: %d %s", rr.Code, rr.Body.String())
	}
	if rr := doHTTP(h, "GET", "/programs/"+resp.Fingerprint+"/source", "", nil); rr.Code != http.StatusOK ||
		rr.Body.String() != frontDoorKernel {
		t.Errorf("source did not round-trip: %d", rr.Code)
	}
	unknown := strings.Repeat("ab", 16)
	if rr := doHTTP(h, "GET", "/programs/"+unknown, "", nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown program meta: %d, want 404", rr.Code)
	}

	// Job workload references: malformed fingerprint 400, unknown 404.
	if rr := doHTTP(h, "POST", "/jobs", `{"bench":"program:nope"}`, key); rr.Code != http.StatusBadRequest {
		t.Errorf("malformed program workload: %d, want 400", rr.Code)
	}
	if rr := doHTTP(h, "POST", "/jobs", fmt.Sprintf(`{"bench":"program:%s"}`, unknown), key); rr.Code != http.StatusNotFound {
		t.Errorf("unknown program workload: %d, want 404", rr.Code)
	}
}

// TestFrontDoorRateLimitAndQuotaHTTP is the HTTP half of the isolation
// acceptance proof: one tenant exhausting its token bucket gets 429 +
// Retry-After while a second tenant's submissions sail through, and the
// stored-program / concurrent-job quotas answer 429 without charging
// cache hits.
func TestFrontDoorRateLimitAndQuotaHTTP(t *testing.T) {
	reg, err := tenant.New([]tenant.Tenant{
		{ID: "a", Key: "ka", Quotas: tenant.Quotas{RatePerSec: 1, Burst: 2}},
		{ID: "b", Key: "kb", Quotas: tenant.Quotas{RatePerSec: 1, Burst: 2}},
		{ID: "c", Key: "kc", Quotas: tenant.Quotas{RatePerSec: -1, MaxStoredPrograms: 1}},
		{ID: "d", Key: "kd", Quotas: tenant.Quotas{RatePerSec: -1, MaxConcurrentJobs: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	reg.SetNow(func() time.Time { return now })

	store, err := NewProgramStore(ProgramStoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s := newTestService(t, Config{
		Tenants:  reg,
		Programs: store,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			<-release
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer func() { close(release); s.Shutdown(context.Background()) }()
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()

	submit := func(key, body string) *httptest.ResponseRecorder {
		return doHTTP(h, "POST", "/jobs", body, map[string]string{"X-API-Key": key})
	}

	// Tenant a drains its burst of 2; the third request is rate-limited
	// with a Retry-After a client can honor.
	spec := `{"bench":"gcc","trials":1}`
	for i := 0; i < 2; i++ {
		if rr := submit("ka", spec); rr.Code != http.StatusAccepted {
			t.Fatalf("a submit %d: %d %s", i, rr.Code, rr.Body.String())
		}
	}
	rr := submit("ka", spec)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("a over burst: %d, want 429", rr.Code)
	}
	retry := rr.Header().Get("Retry-After")
	if retry == "" || retry == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", retry)
	}
	// Tenant b is unaffected while a is limited.
	for i := 0; i < 2; i++ {
		if rr := submit("kb", spec); rr.Code != http.StatusAccepted {
			t.Fatalf("b submit %d while a limited: %d %s", i, rr.Code, rr.Body.String())
		}
	}
	// After the advertised wait, a is admitted again.
	var wait int
	fmt.Sscanf(retry, "%d", &wait)
	now = now.Add(time.Duration(wait) * time.Second)
	if rr := submit("ka", spec); rr.Code != http.StatusAccepted {
		t.Fatalf("a after Retry-After: %d %s", rr.Code, rr.Body.String())
	}

	// Stored-program quota: c keeps one program; a second distinct
	// program 429s, but resubmitting the first is a free cache hit.
	progs := map[string]string{"X-API-Key": "kc"}
	if rr := doHTTP(h, "POST", "/programs", frontDoorKernel, progs); rr.Code != http.StatusCreated {
		t.Fatalf("c first program: %d %s", rr.Code, rr.Body.String())
	}
	other := strings.Replace(frontDoorKernel, "#4096", "#4104", 1)
	rr = doHTTP(h, "POST", "/programs", other, progs)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("c second program: %d, want 429 (quota)", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After")
	}
	if rr := doHTTP(h, "POST", "/programs", frontDoorKernel, progs); rr.Code != http.StatusOK {
		t.Fatalf("c resubmit at quota: %d, want 200 cached (hits cost nothing)", rr.Code)
	}
	if _, programs := reg.Usage("c"); programs != 1 {
		t.Errorf("c program usage = %d, want 1", programs)
	}

	// Concurrent-job quota: d holds one running job; the second 429s
	// until the first finishes.
	if rr := submit("kd", spec); rr.Code != http.StatusAccepted {
		t.Fatalf("d first job: %d %s", rr.Code, rr.Body.String())
	}
	if rr := submit("kd", spec); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("d second job: %d, want 429 (concurrent-job quota)", rr.Code)
	}
}

// TestClassifyStepLimitPermanent: a step-limit failure is deterministic
// (the interpreter replays identically), so retrying is pure waste.
func TestClassifyStepLimitPermanent(t *testing.T) {
	err := fmt.Errorf("validating submission: %w", ir.ErrStepLimit)
	if got := Classify(err); got != Permanent {
		t.Fatalf("Classify(ErrStepLimit) = %v, want Permanent", got)
	}
}

// TestProgramStoreRestartRecompile: a restarted store serves the same
// metadata and recompiles artifacts on demand from the persisted
// source, and a restarted service re-counts stored programs against
// their tenants' quotas.
func TestProgramStoreRestartRecompile(t *testing.T) {
	dir := t.TempDir()
	store, err := NewProgramStore(ProgramStoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f, steps, err := store.Validate(frontDoorKernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, _, err := store.Put(context.Background(), "acme", frontDoorKernel, f, steps)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same dir with an empty cache.
	store2, err := NewProgramStore(ProgramStoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := store2.List(); len(got) != 1 || got[0].Fingerprint != meta.Fingerprint {
		t.Fatalf("restarted store lists %v", got)
	}
	entry, err := store2.Entry(context.Background(), meta.Fingerprint)
	if err != nil {
		t.Fatalf("recompile on demand: %v", err)
	}
	if entry.Fingerprint != meta.Fingerprint || len(entry.Schemes) != 3 {
		t.Fatalf("recompiled entry = %+v", entry)
	}
	if st := store2.CacheStats(); st.Compiles != 1 {
		t.Errorf("restart compiles = %d, want exactly 1", st.Compiles)
	}
	if _, err := store2.Entry(context.Background(), strings.Repeat("00", 16)); !errors.Is(err, ErrUnknownProgram) {
		t.Errorf("unknown entry: %v, want ErrUnknownProgram", err)
	}

	// Service restore re-counts the stored program against its tenant.
	reg, err := tenant.New([]tenant.Tenant{{ID: "acme", Key: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Tenants: reg, Programs: store2})
	defer s.Shutdown(context.Background())
	if _, programs := reg.Usage("acme"); programs != 1 {
		t.Errorf("restored program usage = %d, want 1", programs)
	}
}
