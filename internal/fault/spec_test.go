package fault

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// TestSpecResolve pins what a Spec resolves to: the defaults, the
// scheme's simulator configuration with the containment override, and
// the refusals, each wrapping ErrInvalidConfig.
func TestSpecResolve(t *testing.T) {
	off := false
	unsafe := pipeline.TurnstileConfig(8, 20)
	unsafe.Containment = false
	adv := &Adversary{MissProb: 0.1, BurstMax: 7}
	for _, tc := range []struct {
		spec   Spec
		scheme core.Scheme
		cfg    Config
	}{
		{Spec{Bench: "gcc"}, core.Turnpike, Config{Trials: 100, Sim: pipeline.TurnpikeConfig(4, 10)}},
		{Spec{Bench: "gcc", Scheme: "turnstile", Trials: 5, Seed: 3, WCDL: 20, SBSize: 8, FailureBudget: -1,
			Adversary: adv, Containment: &off},
			core.Turnstile, Config{Trials: 5, Seed: 3, Sim: unsafe, FailureBudget: -1, Adversary: adv}},
		{Spec{Bench: ProgramPrefix + "0123456789abcdef0123456789abcdef"}, core.Turnpike,
			Config{Trials: 100, Sim: pipeline.TurnpikeConfig(4, 10)}},
	} {
		sc, cfg, err := tc.spec.Resolve()
		if err != nil || sc != tc.scheme || !reflect.DeepEqual(cfg, tc.cfg) {
			t.Errorf("%+v resolves to %v %+v %v, want %v %+v", tc.spec, sc, cfg, err, tc.scheme, tc.cfg)
		}
	}
	for _, spec := range []Spec{
		{},
		{Bench: "gcc", Scheme: "baseline"},
		{Bench: "gcc", Scheme: "nope"},
		{Bench: "gcc", Trials: -1},
		{Bench: "program:nope"},
		{Bench: "gcc", Adversary: &Adversary{BurstMax: 8}},
		{Bench: "gcc", Adversary: &Adversary{MissProb: 2}},
	} {
		if _, _, err := spec.Resolve(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%+v: err = %v, want ErrInvalidConfig", spec, err)
		}
	}
	if _, _, _, err := (Spec{Bench: "nope"}).Compile(); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown benchmark: err = %v, want ErrInvalidConfig", err)
	}
}
