package obs

// Ring is a bounded ring of the values last appended to it: when full,
// Append overwrites the oldest. It does no locking of its own; its
// owner guards it with the lock that guards the owner (olog.Recorder,
// span.Tracer).
type Ring[T any] struct {
	buf     []T
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding the capacity values last appended.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, capacity)}
}

// Append adds v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Append(v T) {
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Values returns a copy of the values held that keep accepts (every
// one for a nil keep), oldest first; nil when none.
func (r *Ring[T]) Values(keep func(*T) bool) []T {
	held, start := r.next, 0
	if r.full {
		held, start = len(r.buf), r.next
	}
	var out []T
	if keep == nil && held > 0 {
		out = make([]T, 0, held)
	}
	for i := range held {
		if v := &r.buf[(start+i)%len(r.buf)]; keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}

// Dropped reports how many values Append has overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }
