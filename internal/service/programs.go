package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// The program half of the front door: tenants submit IR text, the store
// validates it inside hard resource envelopes (parse limits, an
// interpreter step budget proving the program halts, a compile
// deadline), fingerprints it, compiles it once under every scheme into
// the content-addressed artifact cache, and persists the source so a
// restarted daemon can recompile on demand. Campaign jobs then reference
// the program as the workload "program:<fingerprint>".

// ProgramBenchPrefix marks a JobSpec.Bench that names a submitted
// program by fingerprint instead of a built-in benchmark.
const ProgramBenchPrefix = "program:"

// fingerprintRE is the shape of an artifact fingerprint: 32 lowercase
// hex characters (128 bits of SHA-256).
var fingerprintRE = regexp.MustCompile(`^[0-9a-f]{32}$`)

// ErrUnknownProgram rejects jobs referencing a fingerprint the store
// never accepted (404).
var ErrUnknownProgram = errors.New("service: no such program")

// errProgramStorage marks persistence failures (500, not the client's
// fault) apart from validation failures (422).
var errProgramStorage = errors.New("service: program storage")

// Program is one accepted submission's durable metadata. The compiled
// images live in the artifact cache (recompiled on demand after a
// restart); the source text lives next to programs.json as
// <fingerprint>.ir.
type Program struct {
	Fingerprint string `json:"fingerprint"`
	// Name is the submitted function's name (informational; identity is
	// the fingerprint).
	Name string `json:"name"`
	// TenantID is the submitting tenant, charged for the stored-program
	// quota slot and joined into the correlated log.
	TenantID string `json:"tenant_id,omitempty"`
	// SBSize is the store-buffer size the artifacts are compiled for;
	// campaigns against this program simulate the same.
	SBSize int `json:"sb_size"`
	// Shape of the parsed IR, recorded at admission.
	Blocks      int `json:"blocks"`
	Instrs      int `json:"instrs"`
	VRegs       int `json:"vregs"`
	SourceBytes int `json:"source_bytes"`
	// Steps is how many interpreter steps the validation run took to
	// halt — the program's measured compute cost, always within the
	// tenant's step budget.
	Steps uint64 `json:"steps"`

	SubmittedAt time.Time `json:"submitted_at"`
}

// ProgramStoreConfig parameterizes NewProgramStore.
type ProgramStoreConfig struct {
	// Dir holds programs.json and the <fingerprint>.ir sources
	// (required; created if missing).
	Dir string
	// Cache is the compiled-artifact cache; nil builds a default-sized
	// one.
	Cache *artifact.Cache
	// Limits bounds submitted IR at parse time; zero fields take
	// ir.DefaultParseLimits.
	Limits ir.ParseLimits
	// SBSize is the store-buffer size artifacts are compiled for
	// (default 4).
	SBSize int
	// CompileBudget bounds one submission's compile wall time
	// (default 30s; ≤0 keeps the default — parse limits already bound
	// the work, the deadline is the backstop).
	CompileBudget time.Duration
	// Logger, when set, receives admission/eviction records.
	Logger *slog.Logger
}

// ProgramStore is the submitted-program registry: validated sources on
// disk, compiled artifacts in the cache, metadata in memory and in
// programs.json. Safe for concurrent use.
type ProgramStore struct {
	dir    string
	cache  *artifact.Cache
	limits ir.ParseLimits
	sbSize int
	budget time.Duration
	log    *slog.Logger

	mu    sync.Mutex
	metas map[string]*Program
	order []string // admission order, for listing and persistence
}

// NewProgramStore opens (or creates) the store under cfg.Dir and loads
// the metadata of every previously accepted program. Compiled artifacts
// are not rebuilt here: the first campaign or fetch that needs one
// recompiles it from the persisted source through the cache.
func NewProgramStore(cfg ProgramStoreConfig) (*ProgramStore, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("service: ProgramStoreConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: program dir: %w", err)
	}
	ps := &ProgramStore{
		dir:    cfg.Dir,
		cache:  cfg.Cache,
		limits: cfg.Limits,
		sbSize: cfg.SBSize,
		budget: cfg.CompileBudget,
		log:    cfg.Logger,
		metas:  map[string]*Program{},
	}
	if ps.cache == nil {
		ps.cache = artifact.NewCache(0, nil)
	}
	if ps.limits == (ir.ParseLimits{}) {
		ps.limits = ir.DefaultParseLimits()
	}
	if ps.sbSize <= 0 {
		ps.sbSize = 4
	}
	if ps.budget <= 0 {
		ps.budget = 30 * time.Second
	}
	if ps.log == nil {
		ps.log = olog.Nop()
	}
	if err := ps.load(); err != nil {
		return nil, err
	}
	return ps, nil
}

// CacheStats snapshots the artifact cache counters (the single-flight
// proof surface: a repeat submission must not move Compiles).
func (ps *ProgramStore) CacheStats() artifact.Stats { return ps.cache.Stats() }

// Validate runs a submission through the full admission envelope:
// source-size/block/instr/vreg parse limits, the structural verifier,
// and an interpreter run under stepBudget proving the program halts on
// its own (submitted programs get no memory seeding — they must
// self-initialize). Returns the parsed function and the measured step
// count. Every failure is the client's (422): ir.ErrProgramTooLarge,
// ir.ErrStepLimit, or a parse/verify error.
func (ps *ProgramStore) Validate(source string, stepBudget uint64) (*ir.Func, uint64, error) {
	f, err := ir.ParseFuncLimits(source, ps.limits)
	if err != nil {
		return nil, 0, err
	}
	if err := f.Verify(); err != nil {
		return nil, 0, err
	}
	if stepBudget == 0 {
		stepBudget = DefaultTenantStepBudget
	}
	it := &ir.Interp{
		Regs:      make([]uint64, f.NumVRegs),
		Mem:       isa.NewMemory(),
		StepLimit: stepBudget,
	}
	if err := it.Run(f); err != nil {
		return nil, it.Executed, err
	}
	return f, it.Executed, nil
}

// DefaultTenantStepBudget is the validation step limit used when no
// tenant quota supplies one (library callers without a registry).
const DefaultTenantStepBudget uint64 = 2_000_000

// Put admits a validated program: fingerprint, compile under every
// scheme (single-flight through the artifact cache, under the compile
// budget), persist source + metadata. cached reports that the program
// was already stored — the caller charged no quota and no compile ran.
// Compile and validation failures are 422-class; persistence failures
// wrap errProgramStorage (500-class).
func (ps *ProgramStore) Put(ctx context.Context, tenantID, source string, f *ir.Func, steps uint64) (meta *Program, entry *artifact.Entry, cached bool, err error) {
	fp := artifact.Fingerprint(f)

	ps.mu.Lock()
	if m, ok := ps.metas[fp]; ok {
		ps.mu.Unlock()
		// Known program: serve the artifact (recompiling through the
		// cache if a restart or eviction dropped it) and report a hit.
		e, err := ps.entryFor(ctx, fp, f)
		return m, e, true, err
	}
	ps.mu.Unlock()

	cctx, cancel := artifact.Deadline(ctx, ps.budget)
	defer cancel()
	entry, _, err = ps.cache.GetOrCompute(fp, func() (*artifact.Entry, error) {
		return artifact.CompileAllContext(cctx, f, ps.sbSize, len(source))
	})
	if err != nil {
		return nil, nil, false, err
	}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if m, ok := ps.metas[fp]; ok {
		// A concurrent submission of the same program persisted first;
		// this caller's quota charge should be rolled back.
		return m, entry, true, nil
	}
	meta = &Program{
		Fingerprint: fp,
		Name:        f.Name,
		TenantID:    tenantID,
		SBSize:      entry.SBSize,
		Blocks:      entry.Blocks,
		Instrs:      entry.Instrs,
		VRegs:       entry.VRegs,
		SourceBytes: len(source),
		Steps:       steps,
		SubmittedAt: time.Now().UTC(),
	}
	if err := os.WriteFile(ps.sourcePath(fp), []byte(source), 0o644); err != nil {
		return nil, nil, false, fmt.Errorf("%w: source: %v", errProgramStorage, err)
	}
	ps.metas[fp] = meta
	ps.order = append(ps.order, fp)
	if err := ps.persistLocked(); err != nil {
		// Roll the admission back: a program we cannot persist would
		// vanish on restart while its quota charge survived in memory.
		delete(ps.metas, fp)
		ps.order = ps.order[:len(ps.order)-1]
		os.Remove(ps.sourcePath(fp))
		return nil, nil, false, err
	}
	ps.log.Info("program accepted",
		"fingerprint", fp, "name", f.Name, "tenant", tenantID,
		"blocks", meta.Blocks, "instrs", meta.Instrs, "steps", steps)
	return meta, entry, false, nil
}

// Get returns one program's metadata.
func (ps *ProgramStore) Get(fp string) (*Program, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	m, ok := ps.metas[fp]
	return m, ok
}

// List returns every stored program's metadata in admission order.
func (ps *ProgramStore) List() []*Program {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]*Program, 0, len(ps.order))
	for _, fp := range ps.order {
		out = append(out, ps.metas[fp])
	}
	return out
}

// Source returns a stored program's IR text.
func (ps *ProgramStore) Source(fp string) (string, error) {
	ps.mu.Lock()
	_, ok := ps.metas[fp]
	ps.mu.Unlock()
	if !ok {
		return "", ErrUnknownProgram
	}
	b, err := os.ReadFile(ps.sourcePath(fp))
	if err != nil {
		return "", fmt.Errorf("%w: source: %v", errProgramStorage, err)
	}
	return string(b), nil
}

// Entry returns a program's compiled artifact, recompiling from the
// persisted source (single-flight, under the compile budget) when a
// restart or cache eviction dropped it.
func (ps *ProgramStore) Entry(ctx context.Context, fp string) (*artifact.Entry, error) {
	ps.mu.Lock()
	_, ok := ps.metas[fp]
	ps.mu.Unlock()
	if !ok {
		return nil, ErrUnknownProgram
	}
	return ps.entryFor(ctx, fp, nil)
}

// entryFor serves fp from the cache, rebuilding from f (or the
// persisted source when f is nil). It takes no lock —
// the cache has its own, and holding ps.mu across a compile would
// serialize every store read behind it.
func (ps *ProgramStore) entryFor(ctx context.Context, fp string, f *ir.Func) (*artifact.Entry, error) {
	cctx, cancel := artifact.Deadline(ctx, ps.budget)
	defer cancel()
	entry, _, err := ps.cache.GetOrCompute(fp, func() (*artifact.Entry, error) {
		ff := f
		if ff == nil {
			src, err := os.ReadFile(ps.sourcePath(fp))
			if err != nil {
				return nil, fmt.Errorf("%w: source: %v", errProgramStorage, err)
			}
			ff, err = ir.ParseFuncLimits(string(src), ps.limits)
			if err != nil {
				return nil, fmt.Errorf("service: stored program %s no longer parses: %w", fp, err)
			}
			return artifact.CompileAllContext(cctx, ff, ps.sbSize, len(src))
		}
		return artifact.CompileAllContext(cctx, ff, ps.sbSize, 0)
	})
	return entry, err
}

func (ps *ProgramStore) sourcePath(fp string) string {
	return filepath.Join(ps.dir, fp+".ir")
}

func (ps *ProgramStore) metaPath() string {
	return filepath.Join(ps.dir, "programs.json")
}

// programsFile is the on-disk layout of programs.json.
type programsFile struct {
	Version  int        `json:"version"`
	Programs []*Program `json:"programs"`
}

// persistLocked rewrites programs.json; caller holds ps.mu.
func (ps *ProgramStore) persistLocked() error {
	pf := programsFile{Version: 1}
	for _, fp := range ps.order {
		pf.Programs = append(pf.Programs, ps.metas[fp])
	}
	err := obs.WriteFileAtomic(ps.metaPath(), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(pf)
	})
	if err != nil {
		return fmt.Errorf("%w: %v", errProgramStorage, err)
	}
	return nil
}

// load restores metadata from a previous life. Missing file = fresh
// store. Entries whose source file vanished are dropped with a warning
// rather than poisoning every future campaign against them.
func (ps *ProgramStore) load() error {
	b, err := os.ReadFile(ps.metaPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errProgramStorage, err)
	}
	var pf programsFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return fmt.Errorf("service: %s does not parse: %v", ps.metaPath(), err)
	}
	for _, m := range pf.Programs {
		if m == nil || !fingerprintRE.MatchString(m.Fingerprint) {
			continue
		}
		if _, err := os.Stat(ps.sourcePath(m.Fingerprint)); err != nil {
			ps.log.Warn("stored program has no source file; dropping",
				"fingerprint", m.Fingerprint, "name", m.Name)
			continue
		}
		ps.metas[m.Fingerprint] = m
		ps.order = append(ps.order, m.Fingerprint)
	}
	return nil
}
