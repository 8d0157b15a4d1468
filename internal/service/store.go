package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
)

// The durable half of the service: the job store is one JSON-lines log,
// <StateDir>/jobs.jsonl (obs.Log, DESIGN.md §3). Each of a job's
// transitions (submit, attempt start, outcome, cancel, requeue) appends
// the whole job as one line under s.mu, so the last line for an ID is
// that job's state and a transition costs one write however many jobs
// the store holds. A killed daemon therefore finds every job at its
// previous or its next state: an append is one write, and the boot
// drops a torn last line. Campaign progress itself lives in the per-job
// checkpoint files the fault engine maintains; the store only remembers
// which jobs exist and where they stood.

func (s *Service) jobLogPath() string { return filepath.Join(s.cfg.StateDir, "jobs.jsonl") }

// jobsDir holds the one-file-per-job layout of earlier daemons,
// jobs/<id>.json.
func (s *Service) jobsDir() string { return filepath.Join(s.cfg.StateDir, "jobs") }

// persistJobLocked appends j's state to the job log, or rewrites the log
// from memory if the last append failed. The caller holds s.mu, which
// orders the appends.
func (s *Service) persistJobLocked(j *Job) error {
	s.jobLog.Encode(j) //nolint:errcheck — a job holds no value JSON cannot encode
	if err := s.jobLog.Flush(); err != nil {
		return fmt.Errorf("service: persist job %s: %w", j.ID, err)
	}
	return nil
}

// encodeJobs is the job log's rewrite: every job in job-number order.
// The caller holds s.mu, or is New.
func (s *Service) encodeJobs(enc *json.Encoder) error {
	for _, id := range s.order {
		if err := enc.Encode(s.jobs[id]); err != nil {
			return err
		}
	}
	return nil
}

// jobNumber parses a job ID, "job-<n>"; ok is false for anything else.
func jobNumber(id string) (n int, ok bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil && n > 0
}

var jobNumberRE = regexp.MustCompile(`job-(\d+)`)

// spendJobNumbers moves the next ID past every job number b names.
func (s *Service) spendJobNumbers(b []byte) {
	for _, m := range jobNumberRE.FindAllSubmatch(b, -1) {
		if n, err := strconv.Atoi(string(m[1])); err == nil {
			s.nextID = max(s.nextID, n+1)
		}
	}
}

// loadState restores jobs from earlier daemon lives. It reads the
// layouts oldest first: the whole-store jobs.json (versions 1 and 2),
// the per-job files jobs/<id>.json, then the log, whose last line for an
// ID wins, so a later layout's record of a job wins. Open jobs (queued/
// running/retrying) are re-queued; their campaign checkpoints make the
// resume cheap and their results byte-identical. If any of these files
// exists, the log is rewritten with one line per job, and only then are
// the earlier layouts renamed aside (jobs.json.migrated, jobs.migrated/):
// a crash before the rename migrates them again. A fresh state dir gets
// no file until its first submission. The next ID is one past the
// highest job number that a record, a log line that does not parse, the
// moved-aside log jobs.jsonl.corrupt, a file name in jobs/ or
// jobs.migrated/ (moved-aside and temp files included) or the legacy
// next ID names, so no ID is issued twice.
func (s *Service) loadState() error {
	legacyFile, err := s.loadLegacyFile()
	if err != nil {
		return err
	}
	legacyDir, err := s.loadJobFiles()
	if err != nil {
		return err
	}
	if entries, err := os.ReadDir(s.jobsDir() + ".migrated"); err == nil {
		for _, e := range entries {
			s.spendJobNumbers([]byte(e.Name()))
		}
	}
	if b, err := os.ReadFile(s.jobLogPath() + ".corrupt"); err == nil {
		s.spendJobNumbers(b)
	}
	logged, err := readStoreLog(s.jobLogPath(), s.log, func(line []byte) error {
		j := new(Job)
		err := json.Unmarshal(line, j)
		if _, ok := jobNumber(j.ID); err == nil && !ok {
			err = fmt.Errorf("job ID %q", j.ID)
		}
		if err != nil {
			s.spendJobNumbers(line)
			return err
		}
		s.jobs[j.ID] = j
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: load state: %w", err)
	}
	for id := range s.jobs {
		s.order = append(s.order, id)
	}
	slices.SortFunc(s.order, func(a, b string) int {
		na, _ := jobNumber(a)
		nb, _ := jobNumber(b)
		return cmp.Compare(na, nb)
	})
	for _, id := range s.order {
		s.spendJobNumbers([]byte(id))
		if j := s.jobs[id]; j.State.open() {
			// The previous life never finished this job. Running jobs go
			// back to queued (their checkpoint holds the watermark);
			// retrying jobs re-enter the queue immediately — the process
			// death already consumed any backoff the failure deserved.
			j.State = StateQueued
		}
	}
	if !logged && !legacyFile && !legacyDir {
		return nil
	}
	if err := s.jobLog.Rewrite(); err != nil {
		return fmt.Errorf("service: rewrite job log: %w", err)
	}
	for _, old := range []struct {
		path  string
		found bool
	}{{filepath.Join(s.cfg.StateDir, "jobs.json"), legacyFile}, {s.jobsDir(), legacyDir}} {
		if !old.found {
			continue
		}
		if err := os.Rename(old.path, old.path+".migrated"); err != nil {
			return fmt.Errorf("service: migrate job store: %w", err)
		}
		s.logf("migrated the jobs of %s into %s; the old layout is kept as %s.migrated",
			old.path, s.jobLogPath(), old.path)
	}
	return nil
}

// loadLegacyFile reads the jobs of jobs.json, the whole-store file of
// earlier daemons (version 1, and version 2, whose lease table is
// ignored), and keeps its next ID. A jobs.json that does not parse is
// moved aside.
func (s *Service) loadLegacyFile() (found bool, err error) {
	path := filepath.Join(s.cfg.StateDir, "jobs.json")
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("service: load state: %w", err)
	}
	var sf struct {
		Version int    `json:"version"`
		NextID  int    `json:"next_id"`
		Jobs    []*Job `json:"jobs"`
	}
	if err := json.Unmarshal(b, &sf); err != nil {
		return false, s.moveAside(path, "state file", err, "booting without its jobs")
	}
	if sf.Version != 1 && sf.Version != 2 {
		return false, fmt.Errorf("service: state file %s is version %d; this daemon migrates versions 1 and 2",
			path, sf.Version)
	}
	for _, j := range sf.Jobs {
		if j != nil {
			if _, ok := jobNumber(j.ID); ok {
				s.jobs[j.ID] = j
			}
		}
	}
	s.nextID = max(s.nextID, sf.NextID)
	return true, nil
}

// loadJobFiles reads every jobs/<id>.json. A job file that does not
// parse costs that job only: it is skipped with a warning, and stays in
// the directory, which the migration keeps as jobs.migrated/.
func (s *Service) loadJobFiles() (found bool, err error) {
	entries, err := os.ReadDir(s.jobsDir())
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("service: load state: %w", err)
	}
	for _, e := range entries {
		s.spendJobNumbers([]byte(e.Name()))
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if _, valid := jobNumber(id); !ok || !valid {
			continue // temp files and moved-aside *.corrupt ones
		}
		path := filepath.Join(s.jobsDir(), e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return false, fmt.Errorf("service: load state: %w", err)
		}
		j := new(Job)
		if err = json.Unmarshal(b, j); err == nil && j.ID != id {
			err = fmt.Errorf("it holds job %q", j.ID)
		}
		if err != nil {
			s.log.Warn(fmt.Sprintf("warning: %v: job file %s is unreadable (%v); the other jobs load",
				fault.ErrCheckpointCorrupt, path, err))
			continue
		}
		s.jobs[id] = j
	}
	return true, nil
}

// readStoreLog decodes each complete line of the store log at path and
// reports whether the file exists. A line decode refuses costs its
// record only: the other lines load, and the file is kept as
// <path>.corrupt (a second link, so the rewrite that follows the boot's
// read replaces path without losing it) with a warning wrapping
// fault.ErrCheckpointCorrupt, the fault engine's convention for bytes
// that do not parse.
func readStoreLog(path string, log *slog.Logger, decode func(line []byte) error) (bool, error) {
	lines, err := obs.ReadLines(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var first error
	bad := 0
	for i, line := range lines {
		if err := decode(line); err != nil {
			bad++
			first = cmp.Or(first, fmt.Errorf("line %d: %w", i+1, err))
		}
	}
	if bad > 0 {
		aside := path + ".corrupt"
		os.Remove(aside)
		if err := os.Link(path, aside); err != nil {
			return true, fmt.Errorf("%w: %s: %v (and keeping it as %s failed: %v)",
				fault.ErrCheckpointCorrupt, path, first, aside, err)
		}
		log.Warn(fmt.Sprintf("warning: %v: %d line(s) of %s do not parse (%v); kept as %s, the other records load",
			fault.ErrCheckpointCorrupt, bad, path, first, aside))
	}
	return true, nil
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
