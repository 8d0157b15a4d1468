// Package olog is the repo's structured-logging layer: leveled
// log/slog loggers with JSON and text handlers, plus the correlation
// chain that ties every layer of the campaign service together. One ID
// per layer — HTTP request ID → job ID → campaign shard → trial index —
// travels in the context.Context and is stamped onto every log line a
// correlated logger emits, so one grep over the access log, the job
// lifecycle log, and the campaign's per-trial lines reconstructs a
// request's whole story.
//
// The package follows the same discipline as internal/obs: the disabled
// path is free. A Nop logger's Enabled check is a single interface call
// returning false, and guarded call sites (`if logger != nil`, or a
// cached Enabled(level) bool for per-trial logging) add no allocations
// to hot loops — TestDisabledLoggerZeroAlloc pins that.
package olog

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"strings"
)

// Correlation attribute keys, in emission order. These names are part of
// the pinned log schema (see TestLogSchemaGolden): dashboards and the
// flight-recorder timeline key off them, so renaming one is a breaking
// schema change.
const (
	KeyTenantID  = "tenant_id"
	KeyRequestID = "request_id"
	KeyJobID     = "job_id"
	KeyShard     = "shard"
	KeyTrial     = "trial"
)

// Corr is the correlation chain carried through a context: which tenant's
// HTTP request became which job, which campaign shard (worker) is
// executing, and which trial index it is on. Zero string fields and
// negative numeric fields are "unset" and are not emitted.
type Corr struct {
	TenantID  string
	RequestID string
	JobID     string
	Shard     int
	Trial     int
}

// emptyCorr is the unset chain (Shard/Trial use -1 because 0 is a valid
// shard and trial index).
func emptyCorr() Corr { return Corr{Shard: -1, Trial: -1} }

type corrKey struct{}

// FromContext returns the correlation chain stored in ctx, or the empty
// chain when none is.
func FromContext(ctx context.Context) Corr {
	if c, ok := ctx.Value(corrKey{}).(Corr); ok {
		return c
	}
	return emptyCorr()
}

// WithCorr returns a context carrying exactly c as its correlation
// chain, replacing any chain already present — the re-rooting primitive
// for deriving a fresh job context from a stored record. Callers must
// set unused Shard/Trial to -1 (0 is a valid index for both).
func WithCorr(ctx context.Context, c Corr) context.Context {
	return context.WithValue(ctx, corrKey{}, c)
}

// WithTenantID returns a context whose correlation chain carries the
// authenticated tenant's ID — the outermost link of the chain, stamped
// by the front door's access middleware so every downstream record
// (access log, job lifecycle, per-trial campaign lines) can be filtered
// per tenant.
func WithTenantID(ctx context.Context, id string) context.Context {
	c := FromContext(ctx)
	c.TenantID = id
	return context.WithValue(ctx, corrKey{}, c)
}

// WithRequestID returns a context whose correlation chain carries the
// HTTP request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	c := FromContext(ctx)
	c.RequestID = id
	return context.WithValue(ctx, corrKey{}, c)
}

// WithJobID returns a context whose correlation chain carries the job ID.
func WithJobID(ctx context.Context, id string) context.Context {
	c := FromContext(ctx)
	c.JobID = id
	return context.WithValue(ctx, corrKey{}, c)
}

// WithShard returns a context whose correlation chain carries the
// campaign shard (trial-worker index).
func WithShard(ctx context.Context, shard int) context.Context {
	c := FromContext(ctx)
	c.Shard = shard
	return context.WithValue(ctx, corrKey{}, c)
}

// WithTrial returns a context whose correlation chain carries the trial
// index.
func WithTrial(ctx context.Context, trial int) context.Context {
	c := FromContext(ctx)
	c.Trial = trial
	return context.WithValue(ctx, corrKey{}, c)
}

// attrs renders the set fields of the chain in schema order.
func (c Corr) attrs() []slog.Attr {
	out := make([]slog.Attr, 0, 5)
	if c.TenantID != "" {
		out = append(out, slog.String(KeyTenantID, c.TenantID))
	}
	if c.RequestID != "" {
		out = append(out, slog.String(KeyRequestID, c.RequestID))
	}
	if c.JobID != "" {
		out = append(out, slog.String(KeyJobID, c.JobID))
	}
	if c.Shard >= 0 {
		out = append(out, slog.Int(KeyShard, c.Shard))
	}
	if c.Trial >= 0 {
		out = append(out, slog.Int(KeyTrial, c.Trial))
	}
	return out
}

// NewRequestID returns a fresh 16-hex-character request ID. IDs only
// need to be unique within a log-retention window, not cryptographically
// meaningful; 64 random bits are plenty.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy device is gone; any
		// constant is as good as any other at that point.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Options parameterizes New / NewHandler.
type Options struct {
	// Format is "json" (default, one object per line — the pinned
	// machine-readable schema) or "text" (slog's key=value form, for
	// humans watching a terminal).
	Format string
	// Level is the minimum emitted level; nil means slog.LevelInfo.
	Level slog.Leveler
	// AddSource attaches the file:line of the call site.
	AddSource bool
}

// NewHandler builds the plain format handler (no correlation stamping);
// compose it with Attach, or use New which does both.
func NewHandler(w io.Writer, o Options) slog.Handler {
	hopts := &slog.HandlerOptions{Level: o.Level, AddSource: o.AddSource}
	if strings.EqualFold(o.Format, "text") {
		return slog.NewTextHandler(w, hopts)
	}
	return slog.NewJSONHandler(w, hopts)
}

// New returns a correlated logger writing to w: every line carries the
// correlation chain of the context it was logged with.
func New(w io.Writer, o Options) *slog.Logger {
	return Attach(NewHandler(w, o))
}

// Attach wraps one or more handlers (a writer handler, a flight
// recorder, ...) into a single correlated logger: records fan out to
// every handler that is enabled for their level, and the context's
// correlation chain is appended to each record exactly once.
func Attach(hs ...slog.Handler) *slog.Logger {
	var inner slog.Handler
	switch len(hs) {
	case 0:
		return Nop()
	case 1:
		inner = hs[0]
	default:
		inner = fanout(append([]slog.Handler(nil), hs...))
	}
	return slog.New(corrHandler{inner: inner})
}

// corrHandler stamps the context's correlation chain onto every record
// before forwarding.
type corrHandler struct{ inner slog.Handler }

func (h corrHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h corrHandler) Handle(ctx context.Context, r slog.Record) error {
	if ctx != nil {
		if attrs := FromContext(ctx).attrs(); len(attrs) > 0 {
			r = r.Clone()
			r.AddAttrs(attrs...)
		}
	}
	return h.inner.Handle(ctx, r)
}

func (h corrHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return corrHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h corrHandler) WithGroup(name string) slog.Handler {
	return corrHandler{inner: h.inner.WithGroup(name)}
}

// fanout forwards each record to every handler enabled for its level.
type fanout []slog.Handler

func (f fanout) Enabled(ctx context.Context, l slog.Level) bool {
	for _, h := range f {
		if h.Enabled(ctx, l) {
			return true
		}
	}
	return false
}

func (f fanout) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, h := range f {
		if !h.Enabled(ctx, r.Level) {
			continue
		}
		if err := h.Handle(ctx, r.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f fanout) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make(fanout, len(f))
	for i, h := range f {
		out[i] = h.WithAttrs(attrs)
	}
	return out
}

func (f fanout) WithGroup(name string) slog.Handler {
	out := make(fanout, len(f))
	for i, h := range f {
		out[i] = h.WithGroup(name)
	}
	return out
}

// nopHandler is disabled at every level; call sites guarded by Enabled
// (as slog's Logger methods are) never build a record.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// Nop returns a logger that discards everything with zero allocations —
// the disabled path for components that want an always-non-nil logger.
func Nop() *slog.Logger { return slog.New(nopHandler{}) }
