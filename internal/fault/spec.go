package fault

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Spec is what a campaign is, as one JSON value: the workload, the
// scheme, the trials and their seed, the hardware, the failure budget
// and the fault model. It is the campaign service's job wire format, the
// façade's FaultCampaignConfig maps onto it, and Resolve is the one place
// a campaign is resolved. Zero values take the defaults: Turnpike, 100
// trials, a WCDL of 10 cycles, a 4-entry store buffer and a 10% workload
// scale.
type Spec struct {
	// Bench is the workload: a built-in benchmark name, or
	// "program:<fingerprint>" naming a submitted program (required).
	Bench string `json:"bench"`
	// Scheme is "turnpike" (default) or "turnstile".
	Scheme string `json:"scheme,omitempty"`
	Trials int    `json:"trials,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	WCDL   int    `json:"wcdl,omitempty"`
	SBSize int    `json:"sb_size,omitempty"`
	// ScalePct is a built-in workload's scale (percent).
	ScalePct int `json:"scale_pct,omitempty"`
	// FailureBudget caps SDC/crash trials before the campaign aborts
	// (0 = first failure, -1 = record all); see Config.FailureBudget.
	FailureBudget int `json:"failure_budget,omitempty"`
	// Adversary, when set, is the imperfect-mesh fault model; see
	// Config.Adversary.
	Adversary *Adversary `json:"adversary,omitempty"`
	// Containment, when set, overrides the simulator's containment
	// policy, on by default: a detection arriving after its region
	// verified aborts as a DUE. Off is the unsafe operating point that
	// shows SDC under an imperfect mesh.
	Containment *bool `json:"containment,omitempty"`
}

// ProgramPrefix marks a Spec.Bench that names a submitted program by
// its artifact fingerprint instead of a built-in benchmark.
const ProgramPrefix = "program:"

// Program returns the fingerprint a "program:<fingerprint>" bench
// names, and whether the bench names a submitted program.
func (s Spec) Program() (fp string, ok bool) {
	return strings.CutPrefix(s.Bench, ProgramPrefix)
}

// Resolve checks s and returns the campaign it describes, defaults
// filled: its scheme, and the campaign part of the engine's Config —
// the trials, seed and failure budget, the adversary, and the Turnstile
// or Turnpike simulator configuration with the containment override,
// which the adversary is checked against. The caller adds the run's
// own part: Workers, Lease, Checkpoint and the attachments. Every error wraps ErrInvalidConfig.
func (s Spec) Resolve() (core.Scheme, Config, error) {
	invalid := func(format string, args ...any) (core.Scheme, Config, error) {
		return 0, Config{}, fmt.Errorf("%w: "+format, append([]any{ErrInvalidConfig}, args...)...)
	}
	if s.Bench == "" {
		return invalid("a campaign needs a bench")
	}
	if fp, ok := s.Program(); ok && !artifact.ValidFingerprint(fp) {
		return invalid("%q is not a program fingerprint (want %s<32 hex chars>)", s.Bench, ProgramPrefix)
	}
	sc, err := core.ParseScheme(cmp.Or(s.Scheme, "turnpike"))
	if err != nil || sc == core.Baseline {
		return invalid("scheme %q runs no campaign (want turnpike or turnstile)", s.Scheme)
	}
	if s.Trials < 0 {
		return invalid("negative trial count %d", s.Trials)
	}
	sb, wcdl := cmp.Or(s.SBSize, 4), cmp.Or(s.WCDL, 10)
	sim := pipeline.TurnstileConfig(sb, wcdl)
	if sc == core.Turnpike {
		sim = pipeline.TurnpikeConfig(sb, wcdl)
	}
	if s.Containment != nil {
		sim.Containment = *s.Containment
	}
	if s.Adversary != nil {
		if err := s.Adversary.validate(sim); err != nil {
			return invalid("%v", err)
		}
	}
	return sc, Config{Trials: cmp.Or(s.Trials, 100), Seed: s.Seed, Sim: sim,
		FailureBudget: s.FailureBudget, Adversary: s.Adversary}, nil
}

// Compile resolves s and compiles its built-in benchmark at its scale
// for its scheme and store buffer: the program, the seeder of the
// benchmark's inputs, and the Config Resolve returns. A submitted
// program is compiled when it is admitted, not here.
func (s Spec) Compile() (*isa.Program, func(*isa.Memory), Config, error) {
	sc, cfg, err := s.Resolve()
	if err != nil {
		return nil, nil, Config{}, err
	}
	p, ok := workload.ByName(s.Bench)
	if !ok {
		return nil, nil, Config{}, fmt.Errorf("%w: unknown benchmark %q", ErrInvalidConfig, s.Bench)
	}
	compiled, err := core.Compile(p.Build(cmp.Or(s.ScalePct, 10)), core.SchemeOptions(sc, cfg.Sim.SBSize))
	if err != nil {
		return nil, nil, Config{}, err
	}
	return compiled.Prog, p.SeedMemory, cfg, nil
}
