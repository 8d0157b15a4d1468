package olog

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
)

// The flight recorder: a bounded in-memory ring of recent structured
// events. It rides on the logging pipeline — Recorder.Handler is one leg
// of an Attach fanout — so everything the daemon logs (access lines, job
// transitions, breaker trips, per-trial campaign events) lands in the
// ring with its correlation chain intact, even at levels the terminal
// log suppresses. The ring answers two questions after the fact: "what
// were the last N things this process did" (Dump, wired to SIGQUIT) and
// "what happened to this job" (JobEvents, served at /jobs/{id}/events
// and dumped when a job fails permanently).

// Event is one recorded log record, flattened for JSON serving. Shard
// and Trial are -1 when unset (0 is a valid index for both).
type Event struct {
	Time      time.Time      `json:"time"`
	Level     string         `json:"level"`
	Msg       string         `json:"msg"`
	RequestID string         `json:"request_id,omitempty"`
	JobID     string         `json:"job_id,omitempty"`
	Shard     int            `json:"shard"`
	Trial     int            `json:"trial"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// Recorder is a goroutine-safe bounded ring of Events. When full, the
// oldest event is overwritten; Dropped counts the overwrites.
type Recorder struct {
	mu   sync.Mutex
	ring obs.Ring[Event]
}

// NewRecorder returns a recorder holding the most recent capacity events
// (default 4096 when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Recorder{ring: obs.NewRing[Event](capacity)}
}

// Append records one event, evicting the oldest when the ring is full.
func (r *Recorder) Append(e Event) {
	r.mu.Lock()
	r.ring.Append(e)
	r.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Values(nil)
}

// JobEvents returns the recorded events carrying the given job ID,
// oldest first — the /jobs/{id}/events timeline.
func (r *Recorder) JobEvents(id string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Values(func(e *Event) bool { return e.JobID == id })
}

// Dropped reports how many events the ring has evicted.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Dump writes the recorded events as JSON lines, oldest first — the
// SIGQUIT / job-failure post-mortem artifact. It returns the number of
// events written.
func (r *Recorder) Dump(w io.Writer) (int, error) {
	return WriteEvents(w, r.Events())
}

// DumpJob writes one job's timeline as JSON lines, oldest first.
func (r *Recorder) DumpJob(w io.Writer, id string) (int, error) {
	return WriteEvents(w, r.JobEvents(id))
}

// WriteEvents writes events as JSON lines.
func WriteEvents(w io.Writer, evs []Event) (int, error) {
	enc := json.NewEncoder(w)
	for i, e := range evs {
		if err := enc.Encode(e); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

// Handler returns a slog.Handler that records every record at or above
// min into the ring. Compose it with a writer handler through Attach;
// give it a lower min than the terminal handler and the ring keeps
// debug detail the log stream suppresses.
func (r *Recorder) Handler(min slog.Level) slog.Handler {
	return recHandler{rec: r, min: min}
}

type recHandler struct {
	rec   *Recorder
	min   slog.Level
	attrs []slog.Attr
}

func (h recHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= h.min }

func (h recHandler) Handle(ctx context.Context, r slog.Record) error {
	e := Event{
		Time:  r.Time,
		Level: r.Level.String(),
		Msg:   r.Message,
		Shard: -1,
		Trial: -1,
	}
	absorb := func(a slog.Attr) bool {
		if a.Key == "" {
			return true
		}
		v := a.Value.Resolve().Any()
		switch a.Key {
		case KeyRequestID:
			if s, ok := v.(string); ok {
				e.RequestID = s
				return true
			}
		case KeyJobID:
			if s, ok := v.(string); ok {
				e.JobID = s
				return true
			}
		case KeyShard:
			if n, ok := v.(int64); ok {
				e.Shard = int(n)
				return true
			}
		case KeyTrial:
			if n, ok := v.(int64); ok {
				e.Trial = int(n)
				return true
			}
		}
		if e.Attrs == nil {
			e.Attrs = map[string]any{}
		}
		e.Attrs[a.Key] = v
		return true
	}
	for _, a := range h.attrs {
		absorb(a)
	}
	r.Attrs(absorb)
	h.rec.Append(e)
	return nil
}

func (h recHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return recHandler{rec: h.rec, min: h.min, attrs: append(append([]slog.Attr(nil), h.attrs...), attrs...)}
}

func (h recHandler) WithGroup(string) slog.Handler { return h }
