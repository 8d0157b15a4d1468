// Package span is the wall-clock half of the repo's tracing story. The
// cycle-domain obs.Tracer answers "where do the simulated cycles go";
// this package answers "where does the *real* time go" — queue wait vs.
// golden run vs. shard execution vs. checkpoint writes vs. merge — for
// one campaign job or a whole command-line run.
//
// Span context travels the same road as the olog correlation chain: a
// *Tracer rides a context.Context (Into), Start opens a child span of
// whatever span the context already carries, and every completed span is
// stamped with the request_id → job_id → shard → trial chain
// olog.FromContext finds. Completed spans land in a bounded retention
// ring (the substrate for GET /jobs/{id}/trace and /jobs/{id}/phases),
// stream to an optional obs.Sink through a background flusher, and feed
// span.<layer>.<name>_us duration histograms into a shared registry so
// /metrics carries the same phase timings the trace file details.
//
// The package follows the internal/obs discipline: the disabled path is
// free. A context without a tracer makes Start return the context
// unchanged and a nil *Span whose End is a nil-check — zero allocations,
// pinned by TestDisabledSpanZeroAlloc and BenchmarkDisabledSpans.
package span

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// Record is one completed span: a named wall-clock interval on a layer
// (service, fault, pipeline, cli), with its position in the span tree
// and the correlation chain it was recorded under. Shard and Trial are
// -1 when unset (0 is a valid index for both).
type Record struct {
	ID        uint64         `json:"id"`
	Parent    uint64         `json:"parent,omitempty"`
	Layer     string         `json:"layer"`
	Name      string         `json:"name"`
	Start     time.Time      `json:"start"`
	Dur       time.Duration  `json:"dur"`
	RequestID string         `json:"request_id,omitempty"`
	JobID     string         `json:"job_id,omitempty"`
	Shard     int            `json:"shard"`
	Trial     int            `json:"trial"`
	Args      map[string]any `json:"args,omitempty"`
}

// End returns the span's end time.
func (r Record) End() time.Time { return r.Start.Add(r.Dur) }

// Config parameterizes New.
type Config struct {
	// Capacity bounds the retained completed spans (default 8192). When
	// full, the oldest span is evicted; Dropped counts evictions.
	Capacity int
	// Metrics, when set, receives one span.<layer>.<name>_us duration
	// histogram per distinct span name — the /metrics view of the same
	// phase timings the trace details.
	Metrics *obs.Registry
	// Sink, when set, receives every completed span as an obs.Event
	// (JSONL or Chrome trace by sink type), flushed by a background
	// goroutine every FlushEvery. Close stops the flusher, flushes the
	// tail, and closes the sink.
	Sink obs.Sink
	// FlushEvery is the flusher cadence (default 1s). Only meaningful
	// with Sink set.
	FlushEvery time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Tracer collects completed wall-clock spans. A nil *Tracer is a valid
// disabled tracer: every method nil-checks the receiver.
type Tracer struct {
	cfg   Config
	epoch time.Time

	mu      sync.Mutex
	nextID  uint64
	ring    obs.Ring[Record]
	pending []Record // awaiting the flusher (Sink set only)
	closed  bool
	err     error

	done chan struct{}
	wg   sync.WaitGroup
}

// New builds a tracer. With cfg.Sink set, a background flusher starts
// immediately; stop it with Close (the retention ring outlives Close, so
// per-job queries keep working after shutdown).
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8192
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	t := &Tracer{cfg: cfg, epoch: cfg.Clock(), ring: obs.NewRing[Record](cfg.Capacity)}
	if cfg.Sink != nil {
		t.done = make(chan struct{})
		t.wg.Add(1)
		go t.flushLoop()
	}
	return t
}

// Epoch is the tracer's time zero; exported trace timestamps are
// microseconds since it.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// scope is the context payload: which tracer records, and which span is
// the current parent.
type scope struct {
	t      *Tracer
	parent uint64
}

type scopeKey struct{}

// Into returns a context carrying the tracer (a nil tracer returns ctx
// unchanged). Spans started from the returned context are roots until
// Start nests them.
func Into(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, scope{t: t})
}

// FromContext returns the tracer riding ctx, or nil.
func FromContext(ctx context.Context) *Tracer {
	sc, _ := ctx.Value(scopeKey{}).(scope)
	return sc.t
}

// Detach returns a context with no tracer, preserving everything else
// (correlation chain included). Campaign workers use it so the per-trial
// hot loop under an instrumented shard span records no spans of its own.
func Detach(ctx context.Context) context.Context {
	if sc, ok := ctx.Value(scopeKey{}).(scope); !ok || sc.t == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, scope{})
}

// Span is one open interval. A nil *Span (the disabled path) accepts
// every method as a no-op.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	layer  string
	name   string
	start  time.Time
	corr   olog.Corr
	args   map[string]any
}

// Start opens a span on the context's tracer as a child of the context's
// current span, and returns a context under which further spans nest
// below this one. Without a tracer it returns ctx unchanged and a nil
// span, allocating nothing.
func Start(ctx context.Context, layer, name string) (context.Context, *Span) {
	sc, ok := ctx.Value(scopeKey{}).(scope)
	if !ok || sc.t == nil {
		return ctx, nil
	}
	t := sc.t
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{
		t:      t,
		id:     id,
		parent: sc.parent,
		layer:  layer,
		name:   name,
		start:  t.cfg.Clock(),
		corr:   olog.FromContext(ctx),
	}
	return context.WithValue(ctx, scopeKey{}, scope{t: t, parent: id}), s
}

// SetArg attaches one key/value to the span (shown in trace args).
func (s *Span) SetArg(key string, v any) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = v
}

// End completes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.record(Record{
		ID:        s.id,
		Parent:    s.parent,
		Layer:     s.layer,
		Name:      s.name,
		Start:     s.start,
		Dur:       s.t.cfg.Clock().Sub(s.start),
		RequestID: s.corr.RequestID,
		JobID:     s.corr.JobID,
		Shard:     s.corr.Shard,
		Trial:     s.corr.Trial,
		Args:      s.args,
	})
}

// Record stores an already-measured interval — the retroactive form used
// where the span's start predates the code that learns about it (queue
// wait, backoff sleep, breaker open time). The context supplies the
// correlation chain and parent span; a nil tracer records nothing. An
// end before start clamps to a zero-length span.
func (t *Tracer) Record(ctx context.Context, layer, name string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	dur := end.Sub(start)
	if dur < 0 {
		dur = 0
	}
	var parent uint64
	if sc, ok := ctx.Value(scopeKey{}).(scope); ok {
		parent = sc.parent
	}
	corr := olog.FromContext(ctx)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.record(Record{
		ID:        id,
		Parent:    parent,
		Layer:     layer,
		Name:      name,
		Start:     start,
		Dur:       dur,
		RequestID: corr.RequestID,
		JobID:     corr.JobID,
		Shard:     corr.Shard,
		Trial:     corr.Trial,
		Args:      args,
	})
}

// RecordCtx is the package-level retroactive record: the tracer comes
// from the context (no-op without one). Used by layers that only ever
// see a context, like the campaign engine's checkpoint writes.
func RecordCtx(ctx context.Context, layer, name string, start, end time.Time, args map[string]any) {
	sc, ok := ctx.Value(scopeKey{}).(scope)
	if !ok || sc.t == nil {
		return
	}
	sc.t.Record(ctx, layer, name, start, end, args)
}

// record stores one completed span: metrics histogram, retention ring,
// and the flusher's pending queue.
func (t *Tracer) record(r Record) {
	if r.Dur < 0 { // a clock step backwards must not panic downstream
		r.Dur = 0
	}
	if t.cfg.Metrics != nil {
		t.cfg.Metrics.Histogram("span."+r.Layer+"."+r.Name+"_us", obs.ExpBuckets(1, 4, 16)).
			Observe(uint64(r.Dur.Microseconds()))
	}
	t.mu.Lock()
	t.ring.Append(r)
	if t.cfg.Sink != nil && !t.closed {
		t.pending = append(t.pending, r)
	}
	t.mu.Unlock()
}

// Spans returns every retained span, oldest first.
func (t *Tracer) Spans() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Values(nil)
}

// JobSpans returns the retained spans recorded under the given job ID,
// oldest first — the payload behind GET /jobs/{id}/trace.
func (t *Tracer) JobSpans(id string) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Values(func(r *Record) bool { return r.JobID == id })
}

// Dropped reports how many completed spans the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

// Err returns the first sink error seen, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// flushLoop is the background flusher: every FlushEvery it drains the
// pending queue into the sink. It exits when Close signals done.
func (t *Tracer) flushLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
			t.flush()
		}
	}
}

// flush drains pending spans into the sink, latching the first error.
func (t *Tracer) flush() {
	t.mu.Lock()
	pend := t.pending
	t.pending = nil
	t.mu.Unlock()
	for _, r := range pend {
		if err := t.cfg.Sink.Emit(Event(t.epoch, r)); err != nil {
			t.mu.Lock()
			if t.err == nil {
				t.err = err
			}
			t.mu.Unlock()
			return
		}
	}
}

// Close stops the flusher, flushes the pending tail, and closes the
// sink. The retention ring survives — Spans and JobSpans keep serving —
// so a drained daemon can still answer /jobs/{id}/trace. Idempotent and
// nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return t.err
	}
	t.closed = true
	t.mu.Unlock()
	if t.done != nil {
		close(t.done)
		t.wg.Wait()
	}
	if t.cfg.Sink != nil {
		t.flush()
		if err := t.cfg.Sink.Close(); err != nil {
			t.mu.Lock()
			if t.err == nil {
				t.err = err
			}
			t.mu.Unlock()
		}
	}
	return t.Err()
}

// Event converts one record to the obs trace-event form: timestamps are
// microseconds since epoch, the layer becomes the track (one Perfetto
// lane per layer), and the args carry the span tree and correlation
// chain so a loaded trace can be filtered by request or job.
func Event(epoch time.Time, r Record) obs.Event {
	start := uint64(0)
	if r.Start.After(epoch) {
		start = uint64(r.Start.Sub(epoch).Microseconds())
	}
	args := map[string]any{"span_id": r.ID}
	if r.Parent != 0 {
		args["parent_id"] = r.Parent
	}
	if r.RequestID != "" {
		args["request_id"] = r.RequestID
	}
	if r.JobID != "" {
		args["job_id"] = r.JobID
	}
	if r.Shard >= 0 {
		args["shard"] = r.Shard
	}
	if r.Trial >= 0 {
		args["trial"] = r.Trial
	}
	for k, v := range r.Args {
		args[k] = v
	}
	return obs.Event{
		Kind:  obs.KindSpan,
		Track: r.Layer,
		Cat:   r.Layer,
		Name:  r.Name,
		Start: start,
		Dur:   uint64(r.Dur.Microseconds()),
		Args:  args,
	}
}

// WriteChrome writes the records as one Chrome trace-event JSON document
// (loadable in Perfetto / chrome://tracing) — the GET /jobs/{id}/trace
// payload.
func WriteChrome(w io.Writer, epoch time.Time, recs []Record) error {
	sink := obs.NewChromeSink(w)
	for _, r := range recs {
		if err := sink.Emit(Event(epoch, r)); err != nil {
			return err
		}
	}
	return sink.Close()
}
