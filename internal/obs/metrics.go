// Package obs is the repo's observability substrate: a lightweight
// metrics registry (named counters, gauges, fixed-bucket histograms with
// snapshot/merge/diff and text + JSON rendering), a cycle-domain tracer
// with pluggable sinks (JSONL, Chrome trace-event JSON loadable in
// Perfetto, human-readable text), per-run manifests that make benchmark
// trajectories machine-diffable, and the shared table renderer the
// command-line tools print with.
//
// The simulator hot path never touches this package unless observability
// is explicitly attached: every instrumentation site in internal/pipeline
// is guarded by a single nil check, and BenchmarkSimObsDisabled holds the
// disabled path to the uninstrumented simulator's throughput.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins int64 metric (occupancies, maxima, sizes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax stores v if it exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of uint64 observations. Bounds are
// inclusive upper bounds; one extra overflow bucket catches everything
// above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is overflow
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// ExpBuckets returns n bucket bounds starting at start and growing by
// factor (at least +1 per step), e.g. ExpBuckets(1, 2, 10) = 1,2,4,...,512.
func ExpBuckets(start uint64, factor float64, n int) []uint64 {
	if start < 1 {
		start = 1
	}
	if factor < 1 {
		factor = 2
	}
	out := make([]uint64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		nv := uint64(float64(v) * factor)
		if nv <= v {
			nv = v + 1
		}
		v = nv
	}
	return out
}

// LinearBuckets returns n bounds start, start+step, ...
func LinearBuckets(start, step uint64, n int) []uint64 {
	if step == 0 {
		step = 1
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, start+uint64(i)*step)
	}
	return out
}

func newHistogram(bounds []uint64) *Histogram {
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1), min: ^uint64(0)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Max:    h.max,
	}
	if h.count > 0 {
		s.Min = h.min
	}
	return s
}

// Registry holds named metrics. Lookup is mutex-guarded; the returned
// metric handles are lock-free (counters/gauges) or internally locked
// (histograms), so callers should cache handles on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// of the first registration win; later calls may pass nil.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = ExpBuckets(1, 2, 20)
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistSnapshot is an immutable histogram state.
type HistSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
}

// Mean returns the average observation, 0 when empty.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// merge adds o into h (bucket-wise when shapes match, else coarsely).
func (h HistSnapshot) merge(o HistSnapshot) HistSnapshot {
	out := h
	out.Counts = append([]uint64(nil), h.Counts...)
	if len(o.Counts) == len(h.Counts) {
		for i, c := range o.Counts {
			out.Counts[i] += c
		}
	} else if len(o.Counts) > 0 {
		// Shape mismatch: dump everything into overflow to stay lossless
		// in Count/Sum even if bucket detail is lost.
		out.Counts[len(out.Counts)-1] += o.Count
	}
	if o.Count > 0 {
		if h.Count == 0 || o.Min < out.Min {
			out.Min = o.Min
		}
		if o.Max > out.Max {
			out.Max = o.Max
		}
	}
	out.Count += o.Count
	out.Sum += o.Sum
	return out
}

// Snapshot is a point-in-time copy of a registry, safe to serialize,
// merge, and diff.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// Merge returns the union of two snapshots: counters and histograms sum,
// gauges take the elementwise maximum (gauges here track occupancies and
// maxima, where max is the meaningful cross-run aggregate).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for n, v := range s.Counters {
		out.Counters[n] = v
	}
	for n, v := range o.Counters {
		out.Counters[n] += v
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, v := range o.Gauges {
		if cur, ok := out.Gauges[n]; !ok || v > cur {
			out.Gauges[n] = v
		}
	}
	for n, v := range s.Histograms {
		out.Histograms[n] = v
	}
	for n, v := range o.Histograms {
		if cur, ok := out.Histograms[n]; ok {
			out.Histograms[n] = cur.merge(v)
		} else {
			out.Histograms[n] = v
		}
	}
	return out
}

// Table renders the snapshot as the shared table form the tools print.
func (s Snapshot) Table(title string) Table {
	t := Table{Title: title, Header: []string{"metric", "kind", "value", "detail"}}
	for _, n := range sortedKeys(s.Counters) {
		t.Rows = append(t.Rows, []string{n, "counter", fmt.Sprintf("%d", s.Counters[n]), ""})
	}
	for _, n := range sortedKeys(s.Gauges) {
		t.Rows = append(t.Rows, []string{n, "gauge", fmt.Sprintf("%d", s.Gauges[n]), ""})
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		detail := fmt.Sprintf("min=%d max=%d mean=%.1f", h.Min, h.Max, h.Mean())
		t.Rows = append(t.Rows, []string{n, "histogram", fmt.Sprintf("%d", h.Count), detail})
	}
	return t
}

// RenderText renders the snapshot as aligned text.
func (s Snapshot) RenderText(title string) string {
	t := s.Table(title)
	return t.Render()
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot decodes a snapshot previously written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
