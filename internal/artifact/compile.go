package artifact

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
)

// SchemeNames are the compilation targets of a front-door submission, in
// build order: the baseline (the overhead denominator) plus both
// resilient schemes, so any accepted program can immediately serve
// evaluations and fault campaigns under either.
var SchemeNames = []string{"baseline", "turnstile", "turnpike"}

// CompileAll compiles f under every scheme at sbSize (≤0 defaults to 4),
// audits each resilient image with the independent static verifier, and
// returns a cache entry. sourceBytes is recorded for quota accounting.
func CompileAll(f *ir.Func, sbSize, sourceBytes int) (*Entry, error) {
	if sbSize <= 0 {
		sbSize = 4
	}
	e := &Entry{
		Fingerprint: Fingerprint(f),
		Name:        f.Name,
		Schemes:     make(map[string]*isa.Program, len(SchemeNames)),
		SBSize:      sbSize,
		Blocks:      len(f.Blocks),
		Instrs:      f.InstrCount(),
		VRegs:       f.NumVRegs,
		SourceBytes: sourceBytes,
		size:        int64(sourceBytes),
	}
	for _, name := range SchemeNames {
		sc, err := core.ParseScheme(name)
		if err != nil {
			return nil, err
		}
		opt := core.SchemeOptions(sc, sbSize)
		// Compile on a clone: the compiler mutates its input, and every
		// scheme must start from the same parsed function.
		compiled, err := core.Compile(f.Clone(), opt)
		if err != nil {
			return nil, fmt.Errorf("artifact: compile %s under %s: %w", f.Name, name, err)
		}
		if opt.Scheme != core.Baseline {
			// Audit before caching: a cached artifact is served to every
			// future campaign, so it must pass the same static resilience
			// checks a third-party binary would.
			if err := core.VerifyResilience(compiled.Prog, compiled.Stats.StoreBudget, !opt.ColoredCkpts); err != nil {
				return nil, fmt.Errorf("artifact: %s image failed the resilience audit: %w", name, err)
			}
		}
		n, err := compiled.Prog.WriteTo(io.Discard)
		if err != nil {
			return nil, fmt.Errorf("artifact: size %s image: %w", name, err)
		}
		e.Schemes[name] = compiled.Prog
		e.size += n
	}
	return e, nil
}

// CompileAllContext is CompileAll under a deadline: the compile runs in
// its own goroutine and the call returns ctx.Err() as soon as the
// context ends. The compiler itself is not cancellable, so an abandoned
// compile runs to completion in the background before its goroutine
// exits — acceptable because ParseLimits has already bounded the
// program, making the worst-case compile small.
func CompileAllContext(ctx context.Context, f *ir.Func, sbSize, sourceBytes int) (*Entry, error) {
	if ctx.Done() == nil {
		return CompileAll(f, sbSize, sourceBytes)
	}
	type res struct {
		e   *Entry
		err error
	}
	ch := make(chan res, 1)
	go func() {
		e, err := CompileAll(f, sbSize, sourceBytes)
		ch <- res{e, err}
	}()
	select {
	case r := <-ch:
		return r.e, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("artifact: compile deadline: %w", ctx.Err())
	}
}

// Deadline derives a compile context from a budget; 0 means no deadline.
func Deadline(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, budget)
}
