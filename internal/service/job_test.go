package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	turnpike "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

// legacyJobSpec is JobSpec as it was encoded before it embedded
// fault.Spec: the wire format clients and job files already use.
type legacyJobSpec struct {
	Bench         string `json:"bench"`
	Scheme        string `json:"scheme,omitempty"`
	Trials        int    `json:"trials,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	WCDL          int    `json:"wcdl,omitempty"`
	SBSize        int    `json:"sb_size,omitempty"`
	ScalePct      int    `json:"scale_pct,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	Lease         int    `json:"lease,omitempty"`
	FailureBudget int    `json:"failure_budget,omitempty"`
}

// keys returns the sorted top-level keys of a JSON object.
func keys(t *testing.T, b []byte) []string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestJobSpecWireCompatible: the job bodies CI and perfbench send, and
// the spec of a job file in the encoding before JobSpec embedded
// fault.Spec, decode to the same campaign as that encoding did and
// re-encode with the same keys.
func TestJobSpecWireCompatible(t *testing.T) {
	for _, body := range []string{
		`{"bench":"gcc","trials":1000,"seed":42,"wcdl":10,"sb_size":4,"scale_pct":4,"workers":2,"lease":8,"failure_budget":-1}`,
		`{"bench":"gcc","trials":1,"scale_pct":4}`,
		`{"bench":"gcc","trials":64,"seed":4611686018427387903,"scale_pct":5,"failure_budget":-1}`,
		`{"bench":"program:0123456789abcdef0123456789abcdef","trials":64,"seed":7,"failure_budget":-1}`,
		`{"bench":"gcc","scheme":"turnstile","trials":5,"seed":3,"wcdl":20,"sb_size":8,"scale_pct":4,"workers":2,"lease":2,"failure_budget":-1}`,
	} {
		var old legacyJobSpec
		var spec JobSpec
		if err := json.Unmarshal([]byte(body), &old); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		want := JobSpec{Spec: fault.Spec{Bench: old.Bench, Scheme: old.Scheme, Trials: old.Trials, Seed: old.Seed,
			WCDL: old.WCDL, SBSize: old.SBSize, ScalePct: old.ScalePct, FailureBudget: old.FailureBudget},
			Workers: old.Workers, Lease: old.Lease}
		if spec != want {
			t.Errorf("%s decodes to %+v, want %+v", body, spec, want)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", body, err)
		}
		a, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ka, kb := keys(t, a), keys(t, b); !reflect.DeepEqual(ka, kb) {
			t.Errorf("%s re-encodes with keys %v, want %v", body, kb, ka)
		}
	}
}

// TestLegacyJobFileFinishes: a queued job whose file is in the encoding
// before JobSpec embedded fault.Spec loads and finishes with the result
// of the same campaign run in process.
func TestLegacyJobFileFinishes(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign")
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	file := `{"id":"job-000003","spec":{"bench":"gcc","scheme":"turnpike","trials":12,"seed":7,"scale_pct":4,` +
		`"workers":2,"lease":4,"failure_budget":-1,"checkpoint_every":16},"state":"queued",` +
		`"checkpoint":"job-000003.ckpt.json","submitted_at":"2026-01-02T03:04:05Z",` +
		`"started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}`
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-000003.json"), []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, LocalFleet(Config{StateDir: dir}, nil, nil))
	s.Start()
	defer s.Shutdown(context.Background())
	got := waitState(t, s, "job-000003", StateDone).Result
	want, err := turnpike.InjectFaults("gcc", turnpike.Turnpike, turnpike.FaultCampaignConfig{
		Trials: 12, Seed: 7, ScalePct: 4, Workers: 2, FailureBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy job finished with %+v, want %+v", got, want)
	}
}

// postJob submits body to a fresh service over HTTP.
func postJob(t *testing.T, body string) *httptest.ResponseRecorder {
	t.Helper()
	s := newTestService(t, Config{})
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
	if len(s.Jobs()) != 0 && rr.Code != http.StatusAccepted {
		t.Fatalf("a refused body left a job behind: %+v", s.Jobs())
	}
	return rr
}

// TestSubmitRefusesUnknownField: a field the job spec does not have —
// misspelt, or the checkpoint cadence earlier daemons took — answers
// 400 instead of running a default the client did not ask for.
func TestSubmitRefusesUnknownField(t *testing.T) {
	for _, tc := range []struct{ body, field string }{
		{`{"bench":"gcc","trials":10,"containmnet":false}`, "containmnet"},
		{`{"bench":"gcc","trials":10,"checkpoint_every":16}`, "checkpoint_every"},
	} {
		rr := postJob(t, tc.body)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), tc.field) {
			t.Fatalf("field %s: %d %s, want 400 naming it", tc.field, rr.Code, rr.Body.String())
		}
	}
}

// TestSubmitRefusesAdversaryTheMeshCannotRun: an adversary the resolved
// simulator configuration cannot run — bursts of eight strikes need a
// detect queue of nine, and the default is eight — answers 400, and the
// same adversary with bursts of seven is accepted.
func TestSubmitRefusesAdversaryTheMeshCannotRun(t *testing.T) {
	rr := postJob(t, `{"bench":"gcc","trials":10,"adversary":{"burst_max":8}}`)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "detect queue") {
		t.Fatalf("burst_max 8: %d %s, want 400 naming the detect queue", rr.Code, rr.Body.String())
	}
	if rr := postJob(t, `{"bench":"gcc","trials":10,"adversary":{"burst_max":7}}`); rr.Code != http.StatusAccepted {
		t.Fatalf("burst_max 7: %d %s, want 202", rr.Code, rr.Body.String())
	}
}
