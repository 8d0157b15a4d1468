package service

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/fault"
)

// The fleet wire protocol, registered by Mount when Config.Fleet is set:
//
//	POST /fleet/workers    register (or re-register) a worker
//	POST /fleet/heartbeat  one worker liveness beat
//	POST /fleet/lease      poll for a trial-range lease (204: no work)
//	POST /fleet/complete   return a finished shard or a failure report
//	GET  /fleet            the coordinator's worker + lease status page
//
// Status mapping shared by the worker endpoints: 404 for unknown worker
// or lease IDs (the worker re-registers / drops the shard and polls on),
// 410 for quarantined workers (the process should exit — nothing it
// sends will ever be trusted again), 422 for shard results that failed
// validation (the submitter has just been quarantined).

// RegisterRequest is the POST /fleet/workers payload. ID is optional:
// workers reconnecting after a coordinator restart send their previous
// ID to keep their identity; new workers get one minted.
type RegisterRequest struct {
	ID   string `json:"id,omitempty"`
	Addr string `json:"addr,omitempty"`
}

// RegisterReply tells the worker its identity and cadences.
type RegisterReply struct {
	WorkerID            string `json:"worker_id"`
	HeartbeatIntervalMS int64  `json:"heartbeat_interval_ms"`
	HeartbeatMisses     int    `json:"heartbeat_misses"`
	PollIntervalMS      int64  `json:"poll_interval_ms"`
}

// WorkerRequest identifies the calling worker (heartbeat and lease
// polls).
type WorkerRequest struct {
	WorkerID string `json:"worker_id"`
}

// CompleteRequest returns one lease's outcome: Shard on success, else a
// classified failure report (the lease is reclaimed; a permanent failure
// quarantines the worker).
type CompleteRequest struct {
	WorkerID string             `json:"worker_id"`
	LeaseID  string             `json:"lease_id"`
	Shard    *fault.ShardResult `json:"shard,omitempty"`
	Class    string             `json:"class,omitempty"` // "transient" | "permanent"
	Error    string             `json:"error,omitempty"`
}

// CompleteReply acknowledges a shard: Fresh is how many trials it newly
// committed (0 = benign duplicate, first-complete-wins).
type CompleteReply struct {
	Fresh int `json:"fresh"`
}

// mountFleet registers the fleet endpoints; called by Mount when
// Config.Fleet is set.
func (s *Service) mountFleet(handle func(pattern string, h func(http.ResponseWriter, *http.Request))) {
	handle("POST /fleet/workers", s.access(s.capBody(s.handleFleetRegister)))
	handle("POST /fleet/heartbeat", s.access(s.capBody(s.handleFleetHeartbeat)))
	handle("POST /fleet/lease", s.access(s.capBody(s.handleFleetLease)))
	handle("POST /fleet/complete", s.access(s.capBody(s.handleFleetComplete)))
	handle("GET /fleet", s.access(s.handleFleetStatus))
}

// fleetStatus maps a fleet state-machine error to its HTTP status.
func fleetStatus(err error) int {
	switch {
	case errors.Is(err, ErrWorkerQuarantined):
		return http.StatusGone
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownLease):
		return http.StatusNotFound
	case errors.Is(err, fault.ErrShardInvalid), errors.Is(err, fault.ErrShardMismatch):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func (s *Service) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	info, err := s.cfg.Fleet.Register(req.ID, req.Addr)
	if err != nil {
		writeError(w, fleetStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterReply{
		WorkerID:            info.ID,
		HeartbeatIntervalMS: s.cfg.Fleet.HeartbeatInterval().Milliseconds(),
		HeartbeatMisses:     s.cfg.Fleet.cfg.HeartbeatMisses,
		PollIntervalMS:      s.cfg.Fleet.PollInterval().Milliseconds(),
	})
}

func (s *Service) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req WorkerRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad heartbeat payload"))
		return
	}
	if err := s.cfg.Fleet.Heartbeat(req.WorkerID); err != nil {
		writeError(w, fleetStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleFleetLease(w http.ResponseWriter, r *http.Request) {
	var req WorkerRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad lease payload"))
		return
	}
	grant, err := s.cfg.Fleet.Lease(req.WorkerID)
	if err != nil {
		writeError(w, fleetStatus(err), err)
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Service) handleFleetComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.WorkerID == "" || req.LeaseID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad complete payload"))
		return
	}
	if req.Shard == nil {
		class := Transient
		if req.Class == Permanent.String() {
			class = Permanent
		}
		if err := s.cfg.Fleet.Fail(req.WorkerID, req.LeaseID, class, req.Error); err != nil {
			writeError(w, fleetStatus(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fresh, err := s.cfg.Fleet.Complete(req.WorkerID, req.LeaseID, req.Shard)
	if err != nil {
		writeError(w, fleetStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, CompleteReply{Fresh: fresh})
}

func (s *Service) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Fleet.Snapshot())
}
