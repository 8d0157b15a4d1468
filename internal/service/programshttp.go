package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/obs/olog"
)

// The program front door, registered by Mount when Config.Programs is
// set:
//
//	POST /programs                submit IR text; 201 + ProgramResponse,
//	                              200 when the program was already stored
//	                              (cached, zero compiles), 401 without a
//	                              key, 413 over the body cap, 422 for IR
//	                              that fails the admission envelope, 429
//	                              + Retry-After over the rate limit or
//	                              stored-program quota
//	GET  /programs                every stored program + cache counters
//	GET  /programs/{fp}           one program's metadata
//	GET  /programs/{fp}/source    the canonical IR text (what fleet
//	                              workers compile to serve campaigns)
//
// The submission body is raw IR text by default; Content-Type
// application/json switches to a {"source": "..."} wrapper for clients
// that prefer JSON end to end.

// ProgramSubmitRequest is the optional JSON submission wrapper.
type ProgramSubmitRequest struct {
	Source string `json:"source"`
}

// ProgramResponse answers a submission: the stored metadata, whether it
// was served from the store without compiling, the compiled schemes, the
// workload string to paste into a job spec, and the artifact-cache
// counters (the single-flight proof surface).
type ProgramResponse struct {
	*Program
	Cached   bool           `json:"cached"`
	Schemes  []string       `json:"schemes"`
	Workload string         `json:"workload"`
	Cache    artifact.Stats `json:"cache"`
}

func (s *Service) handleProgramSubmit(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	tid := olog.FromContext(ctx).TenantID
	if err := s.cfg.Tenants.Allow(tid); err != nil {
		s.count("service.rejected_ratelimit")
		s.writeTenantError(w, err)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	source := string(body)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var req ProgramSubmitRequest
		if err := json.Unmarshal(body, &req); err != nil || req.Source == "" {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: JSON submissions need a non-empty \"source\" field"))
			return
		}
		source = req.Source
	}

	var budget uint64
	if t, ok := s.cfg.Tenants.ByID(tid); ok {
		budget = t.Quotas.StepBudget
	}
	f, steps, err := s.cfg.Programs.Validate(source, budget)
	if err != nil {
		s.count("service.programs_rejected")
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// Charge the stored-program quota only for genuinely new programs:
	// a resubmission is a cache hit and costs nothing. The charge
	// happens before Put so a tenant at quota cannot trigger compiles;
	// if Put then reports the program already existed (a concurrent
	// identical submission won the race) the charge is rolled back.
	charged := false
	if _, ok := s.cfg.Programs.Get(artifact.Fingerprint(f)); !ok {
		if err := s.cfg.Tenants.AcquireProgram(tid); err != nil {
			s.count("service.rejected_quota")
			s.writeTenantError(w, err)
			return
		}
		charged = true
	}
	meta, entry, cached, err := s.cfg.Programs.Put(ctx, tid, source, f, steps)
	if err != nil {
		if charged {
			s.cfg.Tenants.ReleaseProgram(tid)
		}
		s.count("service.programs_rejected")
		status := http.StatusUnprocessableEntity
		if errors.Is(err, errProgramStorage) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	if cached && charged {
		s.cfg.Tenants.ReleaseProgram(tid)
	}
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	} else {
		s.count("service.programs_accepted")
		s.log.InfoContext(ctx, "program submitted",
			"fingerprint", meta.Fingerprint, "name", meta.Name,
			"blocks", meta.Blocks, "instrs", meta.Instrs, "steps", meta.Steps)
	}
	writeJSON(w, status, ProgramResponse{
		Program:  meta,
		Cached:   cached,
		Schemes:  schemeNames(entry),
		Workload: fault.ProgramPrefix + meta.Fingerprint,
		Cache:    s.cfg.Programs.CacheStats(),
	})
}

func (s *Service) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Programs []*Program     `json:"programs"`
		Cache    artifact.Stats `json:"cache"`
	}{Programs: s.cfg.Programs.List(), Cache: s.cfg.Programs.CacheStats()})
}

func (s *Service) handleProgram(w http.ResponseWriter, r *http.Request) {
	m, ok := s.cfg.Programs.Get(r.PathValue("fp"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrUnknownProgram)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Service) handleProgramSource(w http.ResponseWriter, r *http.Request) {
	src, err := s.cfg.Programs.Source(r.PathValue("fp"))
	if err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, ErrUnknownProgram) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, src) //nolint:errcheck — client gone is not actionable
}

// schemeNames lists an entry's compiled schemes in build order.
func schemeNames(e *artifact.Entry) []string {
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.Schemes))
	for _, name := range artifact.SchemeNames {
		if _, ok := e.Schemes[name]; ok {
			out = append(out, name)
		}
	}
	return out
}
