package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
)

// The durable half of the service: each job is one file,
// <StateDir>/jobs/<id>.json, rewritten through obs.WriteFileAtomic (temp
// file + rename) at each of that job's transitions. A killed daemon
// therefore finds every job at its previous or its next state, never a
// torn one, and a transition costs one small write however many jobs the
// store holds; a finished job's file is never written again. Campaign
// progress itself lives in the per-job checkpoint files the fault engine
// maintains; the store only remembers which jobs exist and where they
// stood.

// legacyStateFile is the layout of jobs.json, the whole-store file of
// earlier daemons: version 1, and version 2, whose lease table is
// ignored. loadState migrates it to per-job files.
type legacyStateFile struct {
	Version int    `json:"version"`
	NextID  int    `json:"next_id"`
	Jobs    []*Job `json:"jobs"`
}

func (s *Service) jobsDir() string { return filepath.Join(s.cfg.StateDir, "jobs") }

// persistJobLocked rewrites one job's file. The caller holds s.mu, which
// orders the writes of one job, or is New, before the service starts.
func (s *Service) persistJobLocked(j *Job) error {
	err := obs.WriteFileAtomic(filepath.Join(s.jobsDir(), j.ID+".json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(j)
	})
	if err != nil {
		return fmt.Errorf("service: persist job %s: %w", j.ID, err)
	}
	return nil
}

// loadState restores jobs from a previous daemon life: every
// jobs/<id>.json, in job-number order. A job file that does not parse is
// moved aside (never deleted — it may be wanted for a post-mortem) with
// a warning, mirroring the fault engine's ErrCheckpointCorrupt
// convention, and the other jobs load. Open jobs (queued/running/
// retrying) are re-queued; their campaign checkpoints make the resume
// cheap and their results byte-identical. The next ID is one past the
// highest job number any file in jobs/ names, moved-aside and temp
// files included, so no ID is issued twice.
func (s *Service) loadState() error {
	if err := s.migrateLegacy(); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("service: load state: %w", err)
	}
	type numbered struct {
		n int
		j *Job
	}
	var loaded []numbered
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "job-%d.json", &n); err != nil {
			continue
		}
		s.nextID = max(s.nextID, n+1)
		if !strings.HasSuffix(e.Name(), ".json") {
			continue // WriteFileAtomic's *.tmp* files and moved-aside *.corrupt ones
		}
		path := filepath.Join(s.jobsDir(), e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("service: load state: %w", err)
		}
		j := new(Job)
		if err = json.Unmarshal(b, j); err == nil && j.ID+".json" != e.Name() {
			err = fmt.Errorf("it holds job %q", j.ID)
		}
		if err != nil {
			if err := s.moveAside(path, "job file", err, "the other jobs load"); err != nil {
				return err
			}
			continue
		}
		loaded = append(loaded, numbered{n, j})
	}
	slices.SortFunc(loaded, func(a, b numbered) int { return cmp.Compare(a.n, b.n) })
	for _, l := range loaded {
		j := l.j
		if j.State.open() {
			// The previous life never finished this job. Running jobs go
			// back to queued (their checkpoint holds the watermark);
			// retrying jobs re-enter the queue immediately — the process
			// death already consumed any backoff the failure deserved.
			j.State = StateQueued
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	return nil
}

// migrateLegacy moves an earlier daemon's jobs.json to per-job files: it
// writes each job's file, keeps the file's next ID, then renames it to
// jobs.json.migrated. A crash part-way leaves jobs.json in place, and the
// next boot migrates it again. A jobs.json that does not parse is moved
// aside.
func (s *Service) migrateLegacy() error {
	path := filepath.Join(s.cfg.StateDir, "jobs.json")
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: load state: %w", err)
	}
	var sf legacyStateFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return s.moveAside(path, "state file", err, "booting without its jobs")
	}
	if sf.Version != 1 && sf.Version != 2 {
		return fmt.Errorf("service: state file %s is version %d; this daemon migrates versions 1 and 2",
			path, sf.Version)
	}
	for _, j := range sf.Jobs {
		if j == nil || j.ID == "" {
			continue
		}
		if err := s.persistJobLocked(j); err != nil {
			return err
		}
	}
	s.nextID = max(s.nextID, sf.NextID)
	if err := os.Rename(path, path+".migrated"); err != nil {
		return fmt.Errorf("service: migrate state file: %w", err)
	}
	s.logf("migrated %d job(s) from %s to per-job files under %s", len(sf.Jobs), path, s.jobsDir())
	return nil
}

// moveAside renames an unreadable store file to <path>.corrupt and warns
// with fault.ErrCheckpointCorrupt; then says what the boot does instead.
func (s *Service) moveAside(path, what string, cause error, then string) error {
	aside := path + ".corrupt"
	if err := os.Rename(path, aside); err != nil {
		return fmt.Errorf("service: %s %s: %w (and moving it aside failed: %v)",
			what, path, fault.ErrCheckpointCorrupt, err)
	}
	s.logf("warning: %v: %s %s is unreadable (%v); moved to %s, %s",
		fault.ErrCheckpointCorrupt, what, path, cause, aside, then)
	return nil
}
