package service

import (
	"context"
	"fmt"
	"log/slog"

	turnpike "repro"
	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Executor is the transport-agnostic campaign execution strategy: the
// service's worker supervisor hands it one job attempt and gets back the
// merged Result. The production implementation is the FleetExecutor: the
// campaign is opened as a Session and its trial ranges are leased to a
// worker fleet, or executed in this process while no workers are live.
// Either way, checkpoint is the job's resume file and a cancelled ctx
// must flush it and return promptly.
type Executor interface {
	Execute(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Result, error)
}

// PrepareFunc compiles one job's campaign up to (and including) its
// golden run, without executing any trials: the expensive, shared half
// of campaign setup. The coordinator uses it to open the Session it
// leases from; workers use it (with checkpoint "") to prime the
// simulators a leased range runs on. Both sides compiling the same spec
// must produce identical golden statistics — that fingerprint is how a
// shard proves it came from the same campaign.
type PrepareFunc func(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Prepared, error)

// ProgramResolver resolves a submitted program's fingerprint to its
// compiled artifact. A coordinator reads its ProgramStore (Entry);
// workers fetch the program from the coordinator and compile locally.
type ProgramResolver func(ctx context.Context, fp string) (*artifact.Entry, error)

// CampaignPrepare adapts the two-phase fault-campaign engine to
// PrepareFunc: the one JobSpec → campaign mapping, shared by the
// coordinator and its workers so identical specs compile identical
// campaigns. It threads the process's registry, live-progress gauges,
// and structured logger (each may be nil) into every campaign, so
// /metrics, /live, and the correlated log cover the jobs as they run.
// programs resolves "program:<fingerprint>" workloads; nil rejects them.
func CampaignPrepare(reg *obs.Registry, progress *pipeline.Progress, logger *slog.Logger, programs ProgramResolver) PrepareFunc {
	return func(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Prepared, error) {
		sc, err := spec.campaignScheme()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", fault.ErrInvalidConfig, err)
		}
		cfg := turnpike.FaultCampaignConfig{
			Trials:          spec.Trials,
			Seed:            spec.Seed,
			SBSize:          spec.SBSize,
			WCDL:            spec.WCDL,
			ScalePct:        spec.ScalePct,
			Workers:         spec.Workers,
			Lease:           spec.Lease,
			FailureBudget:   spec.FailureBudget,
			Checkpoint:      checkpoint,
			CheckpointEvery: spec.CheckpointEvery,
			Metrics:         reg,
			Progress:        progress,
			Logger:          logger,
		}
		if !spec.IsProgram() {
			return turnpike.PrepareFaultCampaign(ctx, spec.Bench, sc, cfg)
		}
		if programs == nil {
			return nil, fmt.Errorf("%w: this process resolves no submitted programs", fault.ErrInvalidConfig)
		}
		entry, err := programs(ctx, spec.ProgramFingerprint())
		if err != nil {
			return nil, err
		}
		prog, ok := entry.Schemes[sc.String()]
		if !ok {
			return nil, fmt.Errorf("%w: program %s has no %s image", fault.ErrInvalidConfig,
				entry.Fingerprint, sc)
		}
		cfg.SBSize = entry.SBSize
		return turnpike.PrepareCompiledFaultCampaign(ctx, prog, sc, cfg)
	}
}

// FleetExecutor runs each job through the fleet coordinator: Prepare
// compiles the campaign and captures golden state once, the Session is
// registered with the Fleet, and trial ranges are leased to registered
// workers (or executed locally while none are live) until the campaign
// merges. Results are byte-identical to a single-process run of the same
// spec.
type FleetExecutor struct {
	Fleet   *Fleet
	Prepare PrepareFunc
}

// Execute implements Executor.
func (fe *FleetExecutor) Execute(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Result, error) {
	if fe.Fleet == nil || fe.Prepare == nil {
		return nil, MarkPermanent(fmt.Errorf("service: FleetExecutor needs both a Fleet and a Prepare func"))
	}
	p, err := fe.Prepare(ctx, spec, checkpoint)
	if err != nil {
		return nil, err
	}
	sess, err := p.Open(ctx)
	if err != nil {
		return nil, err
	}
	return fe.Fleet.Run(ctx, spec, sess)
}
