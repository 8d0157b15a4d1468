package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"reflect"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// campaignCheckpoint is the on-disk resume state: a fingerprint binding
// the file to one exact campaign (seed, trial count, resolved injection
// window, adversary, the resolved simulator configuration, and the
// golden run's cycle/instruction counts, which pin the program and its
// inputs), plus every completed trial. The golden counts cannot pin the
// settings that act only on faulty runs (Containment, DetectQueue,
// DegradeWindow), so the configuration is stored whole. The file is
// rewritten in full through obs.WriteFileAtomic, so an interrupted
// campaign never leaves a torn checkpoint behind.
type campaignCheckpoint struct {
	Version       int             `json:"version"`
	Seed          int64           `json:"seed"`
	Trials        int             `json:"trials"`
	MaxInjectInst uint64          `json:"max_inject_inst"`
	GoldenCycles  uint64          `json:"golden_cycles"`
	GoldenInsts   uint64          `json:"golden_insts"`
	Adversary     *Adversary      `json:"adversary,omitempty"`
	Sim           pipeline.Config `json:"sim"`
	Done          []TrialRecord   `json:"done"`
}

// Version 2: injections gained burst/false-positive plans and the
// fingerprint gained the adversary, so v1 files no longer resume.
// Version 3: the fingerprint gained the resolved simulator
// configuration, so v2 files, which could resume under another
// containment setting, no longer resume.
const checkpointVersion = 3

// save rewrites the checkpoint file with every completed trial, in trial
// order. Callers serialize saves (the campaign holds its merge mutex or
// has joined all workers).
func (e *engine) save(records []*TrialRecord, goldenStats pipeline.Stats) error {
	ck := campaignCheckpoint{
		Version:       checkpointVersion,
		Seed:          e.cfg.Seed,
		Trials:        e.cfg.Trials,
		MaxInjectInst: e.maxAt,
		GoldenCycles:  goldenStats.Cycles,
		GoldenInsts:   goldenStats.Insts,
		Adversary:     e.cfg.Adversary,
		Sim:           e.sim,
	}
	for _, rec := range records {
		if rec != nil {
			ck.Done = append(ck.Done, *rec)
		}
	}
	return obs.WriteFileAtomic(e.cfg.Checkpoint, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(ck)
	})
}

// restore loads the checkpoint file, if any, into records. A missing file
// is a fresh campaign. Bytes that do not parse as a checkpoint, or records
// that contradict the deterministic per-trial plan, wrap
// ErrCheckpointCorrupt (the caller restarts fresh); a syntactically valid
// file whose fingerprint does not match this campaign wraps
// ErrInvalidConfig, because it records a *different* campaign's progress
// and must not be silently overwritten.
func (e *engine) restore(records []*TrialRecord, goldenStats pipeline.Stats) error {
	b, err := os.ReadFile(e.cfg.Checkpoint)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	var ck campaignCheckpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, e.cfg.Checkpoint, err)
	}
	if ck.Version != checkpointVersion || ck.Seed != e.cfg.Seed || ck.Trials != e.cfg.Trials ||
		ck.MaxInjectInst != e.maxAt ||
		ck.GoldenCycles != goldenStats.Cycles || ck.GoldenInsts != goldenStats.Insts ||
		!reflect.DeepEqual(ck.Adversary, e.cfg.Adversary) || !reflect.DeepEqual(ck.Sim, e.sim) {
		return fmt.Errorf("%w: checkpoint %s was written by a different campaign (seed, trials, workload, or simulator config changed) — delete it to start over",
			ErrInvalidConfig, e.cfg.Checkpoint)
	}
	det := e.det // one reseeded copy validates every record
	for i := range ck.Done {
		rec := ck.Done[i]
		if rec.Trial < 0 || rec.Trial >= len(records) {
			return fmt.Errorf("%w: %s: trial %d out of range", ErrCheckpointCorrupt, e.cfg.Checkpoint, rec.Trial)
		}
		if got := e.planWith(rec.Trial, &det); !reflect.DeepEqual(got, rec.Inj) {
			return fmt.Errorf("%w: %s: trial %d recorded injection %+v does not match the plan %+v",
				ErrCheckpointCorrupt, e.cfg.Checkpoint, rec.Trial, rec.Inj, got)
		}
		records[rec.Trial] = &rec
	}
	return nil
}
