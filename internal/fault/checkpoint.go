package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"reflect"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// checkpointHeader is the first line of a checkpoint file, whose every
// later line is one committed TrialRecord (DESIGN.md §3). It binds the
// file to one exact campaign: seed, trial count, resolved injection
// window, adversary, the resolved simulator configuration, and the
// golden run's cycle/instruction counts, which pin the program and its
// inputs. The golden counts cannot pin the settings that act only on
// faulty runs (Containment, DetectQueue, DegradeWindow), so the
// configuration is stored whole. restore compares the header as one
// value, so a field added here joins the fingerprint.
type checkpointHeader struct {
	Version       int             `json:"version"`
	Seed          int64           `json:"seed"`
	Trials        int             `json:"trials"`
	MaxInjectInst uint64          `json:"max_inject_inst"`
	GoldenCycles  uint64          `json:"golden_cycles"`
	GoldenInsts   uint64          `json:"golden_insts"`
	Adversary     Adversary       `json:"adversary"`
	Sim           pipeline.Config `json:"sim"`
}

// Version 2: injections gained burst/false-positive plans and the
// fingerprint gained the adversary, so v1 files no longer resume.
// Version 3: the fingerprint gained the resolved simulator
// configuration, so v2 files, which could resume under another
// containment setting, no longer resume.
// Version 4: the file became a header line and one line per record,
// appended as records commit, so v3 files no longer resume.
const checkpointVersion = 4

func (e *engine) header(golden pipeline.Stats) checkpointHeader {
	return checkpointHeader{Version: checkpointVersion, Seed: e.cfg.Seed, Trials: e.cfg.Trials,
		MaxInjectInst: e.maxAt, GoldenCycles: golden.Cycles, GoldenInsts: golden.Insts,
		Adversary: e.adv, Sim: e.sim}
}

// log returns the checkpoint's log, not yet opened, whose rewrite
// writes the header and every record, in trial order.
func (e *engine) log(records []*TrialRecord, golden pipeline.Stats) *obs.Log {
	return obs.NewLog(e.cfg.Checkpoint, func(enc *json.Encoder) error {
		if err := enc.Encode(e.header(golden)); err != nil {
			return err
		}
		for _, rec := range records {
			if rec != nil {
				enc.Encode(rec) //nolint:errcheck — a record holds no value JSON cannot encode
			}
		}
		return nil
	})
}

// rewrite atomically replaces the checkpoint file with the header and
// every record, in trial order, and returns its log open for appending.
func (e *engine) rewrite(records []*TrialRecord, golden pipeline.Stats) (*obs.Log, error) {
	l := e.log(records, golden)
	if err := l.Rewrite(); err != nil {
		return nil, err
	}
	return l, nil
}

// restore loads the checkpoint file into records. A missing file, a
// fresh campaign, returns the error wrapping fs.ErrNotExist. An
// unterminated last line is dropped: a kill during an append leaves at
// most that one. Anything else that does not parse, or a record that
// contradicts the deterministic per-trial plan, wraps
// ErrCheckpointCorrupt (the caller restarts fresh); a header other than
// this campaign's, older versions included, wraps ErrInvalidConfig,
// because the file records a *different* campaign's progress and must
// not be silently overwritten.
func (e *engine) restore(records []*TrialRecord, golden pipeline.Stats) error {
	path := e.cfg.Checkpoint
	lines, err := obs.ReadLines(path)
	if errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err != nil {
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: "+format, append([]any{ErrCheckpointCorrupt, path}, args...)...)
	}
	if len(lines) == 0 {
		return corrupt("no complete header line")
	}
	var h checkpointHeader
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return corrupt("header: %v", err)
	}
	if h != e.header(golden) {
		return fmt.Errorf("%w: checkpoint %s was written by a different campaign (seed, trials, workload, or simulator config changed) — delete it to start over",
			ErrInvalidConfig, path)
	}
	det := e.det // one reseeded copy validates every record
	for _, line := range lines[1:] {
		rec := new(TrialRecord)
		if err := json.Unmarshal(line, rec); err != nil {
			return corrupt("%v", err)
		}
		if rec.Trial < 0 || rec.Trial >= len(records) {
			return corrupt("trial %d out of range", rec.Trial)
		}
		if got := e.planWith(rec.Trial, &det); !reflect.DeepEqual(got, rec.Inj) {
			return corrupt("trial %d recorded injection %+v does not match the plan %+v", rec.Trial, rec.Inj, got)
		}
		records[rec.Trial] = rec
	}
	return nil
}
