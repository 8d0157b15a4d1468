package service

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/isa"
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
// shard proves it came from the same campaign. The caller owns the
// campaign until it calls release, once it runs no more trials on it;
// CampaignPrepare then keeps it for the next job of the same campaign.
type PrepareFunc func(ctx context.Context, spec JobSpec, checkpoint string) (p *fault.Prepared, release func(), err error)

// ProgramResolver resolves a submitted program's fingerprint to its
// compiled artifact. A coordinator reads its ProgramStore (Entry);
// workers fetch the program from the coordinator and compile locally.
type ProgramResolver func(ctx context.Context, fp string) (*artifact.Entry, error)

// maxIdleCampaigns bounds the prepared campaigns CampaignPrepare keeps
// between jobs. Each holds its golden state and primed runners (about
// 0.9 MB of heap for gcc at scale 5 with two runners, 6 MB for mcf17 at
// scale 400), so the pool is small: two keep the built-in campaign most
// jobs ask for resident while jobs of other programs come and go.
const maxIdleCampaigns = 2

// campaignKey is everything that shapes a prepared campaign's golden
// state and runners: the workload (a built-in benchmark at its scale,
// or a submitted program's fingerprint), the resolved simulator
// configuration, which also tells the schemes apart, and the runner
// count. Trials, seed, failure budget, adversary, lease and checkpoint
// are the job's own, and fault.Prepared.Reuse derives them afresh.
type campaignKey struct {
	bench   string
	scale   int
	sim     pipeline.Config
	runners int
}

// campaignPool holds the idle prepared campaigns of finished jobs, least
// recently returned first. A job takes its campaign out and returns it
// when it has finished with it, so a campaign serves one job at a time;
// a second concurrent job of the same campaign prepares its own.
type campaignPool struct {
	mu   sync.Mutex
	idle []pooledCampaign
}

type pooledCampaign struct {
	key    campaignKey
	p      *fault.Prepared
	reused bool // p served a job after the one that prepared it
}

// take removes and returns the most recently returned idle campaign
// under key, or nil.
func (cp *campaignPool) take(key campaignKey) *fault.Prepared {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for i := len(cp.idle) - 1; i >= 0; i-- {
		if cp.idle[i].key == key {
			p := cp.idle[i].p
			cp.idle = slices.Delete(cp.idle, i, i+1)
			return p
		}
	}
	return nil
}

// put returns an idle campaign as the most recently returned. Beyond
// maxIdleCampaigns it evicts one of the others: the most recently
// returned that has never been reused, or, if all have been, the least
// recently returned. So a campaign waiting for its first reuse keeps
// its slot while one-off campaigns pass through the other, and one that
// jobs keep asking for is evicted only by campaigns reused as well.
func (cp *campaignPool) put(key campaignKey, p *fault.Prepared, reused bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.idle = append(cp.idle, pooledCampaign{key, p, reused})
	if len(cp.idle) <= maxIdleCampaigns {
		return
	}
	evict := 0
	for i := len(cp.idle) - 2; i >= 0; i-- {
		if !cp.idle[i].reused {
			evict = i
			break
		}
	}
	cp.idle = slices.Delete(cp.idle, evict, evict+1)
}

// CampaignPrepare adapts the two-phase fault-campaign engine to
// PrepareFunc: the one JobSpec → campaign mapping, shared by the
// coordinator and its workers so identical specs compile identical
// campaigns. The spec resolves once (fault.Spec.Resolve); the job adds
// its workers, lease and checkpoint, and the process's registry and
// structured logger (each may be nil), so /metrics, /live (the
// registry's live.* gauges), and the correlated log cover the jobs as
// they run. programs resolves "program:<fingerprint>" workloads; nil
// rejects them.
//
// The function keeps up to maxIdleCampaigns released campaigns, keyed
// by campaignKey, and hands one to the next job of the same campaign
// (fault.Prepared.Reuse) instead of compiling and capturing its golden
// state again: the job runs byte-identically either way. The registry
// counts service.prepare_reused and service.prepare_fresh, and a reused
// job's trace holds a fault.reuse span where a fresh one holds the
// golden runs.
func CampaignPrepare(reg *obs.Registry, logger *slog.Logger, programs ProgramResolver) PrepareFunc {
	pool := &campaignPool{}
	reused, fresh := new(obs.Counter), new(obs.Counter)
	if reg != nil {
		reused, fresh = reg.Counter("service.prepare_reused"), reg.Counter("service.prepare_fresh")
	}
	return func(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Prepared, func(), error) {
		var entry *artifact.Entry
		if fp, ok := spec.Program(); ok {
			if programs == nil {
				return nil, nil, fmt.Errorf("%w: this process resolves no submitted programs", fault.ErrInvalidConfig)
			}
			var err error
			if entry, err = programs(ctx, fp); err != nil {
				return nil, nil, err
			}
			spec.SBSize = entry.SBSize
		}
		sc, cfg, err := spec.Resolve()
		if err != nil {
			return nil, nil, err
		}
		cfg.Workers, cfg.Lease, cfg.Checkpoint = spec.Workers, spec.Lease, checkpoint
		cfg.Metrics, cfg.Logger = reg, logger
		key := campaignKey{bench: spec.Bench, scale: spec.ScalePct, sim: cfg.Sim, runners: cfg.Runners()}
		var p *fault.Prepared
		idle := pool.take(key)
		if idle != nil {
			p, err = idle.Reuse(ctx, cfg)
			reused.Inc()
		} else {
			var prog *isa.Program
			var seedMem func(*isa.Memory)
			if entry != nil {
				if prog = entry.Schemes[sc.String()]; prog == nil {
					return nil, nil, fmt.Errorf("%w: program %s has no %s image", fault.ErrInvalidConfig,
						entry.Fingerprint, sc)
				}
			} else if prog, seedMem, _, err = spec.Compile(); err != nil {
				return nil, nil, err
			}
			p, err = fault.Prepare(ctx, prog, cfg, seedMem)
			fresh.Inc()
		}
		if err != nil {
			return nil, nil, err
		}
		return p, func() { pool.put(key, p, idle != nil) }, nil
	}
}

// FleetExecutor runs each job through the fleet coordinator: Prepare
// compiles the campaign and captures golden state once (or hands on the
// idle campaign a finished job of the same campaign left), the Session
// is registered with the Fleet, and trial ranges are leased to
// registered workers (or executed locally while none are live) until
// the campaign merges. Results are byte-identical to a single-process
// run of the same spec.
type FleetExecutor struct {
	Fleet   *Fleet
	Prepare PrepareFunc
}

// Execute implements Executor.
func (fe *FleetExecutor) Execute(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Result, error) {
	if fe.Fleet == nil || fe.Prepare == nil {
		return nil, MarkPermanent(fmt.Errorf("service: FleetExecutor needs both a Fleet and a Prepare func"))
	}
	p, release, err := fe.Prepare(ctx, spec, checkpoint)
	if err != nil {
		return nil, err
	}
	// Fleet.Run returns once no trial of the job runs on p any more.
	defer release()
	sess, err := p.Open(ctx)
	if err != nil {
		return nil, err
	}
	return fe.Fleet.Run(ctx, spec, sess)
}
