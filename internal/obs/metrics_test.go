package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").SetMax(5) // lower: must not shrink
	r.Gauge("g").SetMax(9)
	if got := r.Gauge("g").Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	h := r.Histogram("h", LinearBuckets(0, 10, 4))
	for _, v := range []uint64{0, 5, 10, 11, 35, 1000} {
		h.Observe(v)
	}
	// Same name returns the same histogram regardless of bounds argument.
	if r.Histogram("h", nil) != h {
		t.Fatal("histogram not memoized by name")
	}
	s := r.Snapshot()
	hs := s.Histograms["h"]
	if hs.Count != 6 || hs.Sum != 1061 || hs.Min != 0 || hs.Max != 1000 {
		t.Fatalf("hist snapshot = %+v", hs)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("counts len %d, bounds len %d", len(hs.Counts), len(hs.Bounds))
	}
	if hs.Counts[len(hs.Counts)-1] != 2 { // 35 and 1000 overflow bound 30
		t.Fatalf("overflow bucket = %d, want 2", hs.Counts[len(hs.Counts)-1])
	}
	var total uint64
	for _, c := range hs.Counts {
		total += c
	}
	if total != hs.Count {
		t.Fatalf("bucket sum %d != count %d", total, hs.Count)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(uint64(j))
				r.Gauge("g").SetMax(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestSnapshotMergeDiff(t *testing.T) {
	a := NewRegistry()
	a.Counter("x").Add(10)
	a.Gauge("g").Set(3)
	a.Histogram("h", LinearBuckets(0, 1, 4)).Observe(2)

	b := NewRegistry()
	b.Counter("x").Add(5)
	b.Counter("y").Add(1)
	b.Gauge("g").Set(8)
	b.Histogram("h", LinearBuckets(0, 1, 4)).Observe(3)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counters["x"] != 15 || m.Counters["y"] != 1 {
		t.Fatalf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 8 { // gauges merge by max
		t.Fatalf("merged gauge = %d, want 8", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 2 || h.Sum != 5 || h.Min != 2 || h.Max != 3 {
		t.Fatalf("merged hist = %+v", h)
	}

	d := m.Diff(a.Snapshot())
	if d.Counters["x"] != 5 || d.Counters["y"] != 1 {
		t.Fatalf("diff counters = %v", d.Counters)
	}
	// Clamped subtraction: diffing against a larger snapshot yields zero,
	// not underflow.
	d2 := a.Snapshot().Diff(m)
	if d2.Counters["x"] != 0 {
		t.Fatalf("clamped diff = %d, want 0", d2.Counters["x"])
	}
}

// TestDiffGaugeKeepsLastValue pins the documented gauge semantics of Diff:
// a gauge is a level, not a flow, so the current reading survives the
// subtraction untouched — even when the previous reading was higher.
func TestDiffGaugeKeepsLastValue(t *testing.T) {
	prev := NewRegistry()
	prev.Gauge("occ").Set(7)
	cur := NewRegistry()
	cur.Gauge("occ").Set(3)
	cur.Gauge("fresh").Set(-2)

	d := cur.Snapshot().Diff(prev.Snapshot())
	if d.Gauges["occ"] != 3 {
		t.Errorf("gauge occ = %d after Diff, want last value 3 (not 3-7)", d.Gauges["occ"])
	}
	if d.Gauges["fresh"] != -2 {
		t.Errorf("gauge fresh = %d, want -2 carried through", d.Gauges["fresh"])
	}
	if _, ok := d.Gauges["missing"]; ok {
		t.Error("Diff invented a gauge absent from the current snapshot")
	}
}

// TestDiffHistogramShapeMismatch pins the fallback for histograms whose
// bucket layout changed between snapshots: bucket-wise subtraction is
// impossible, so the current histogram passes through whole.
func TestDiffHistogramShapeMismatch(t *testing.T) {
	prev := NewRegistry()
	ph := prev.Histogram("h", LinearBuckets(0, 1, 4))
	ph.Observe(1)
	ph.Observe(2)
	cur := NewRegistry()
	ch := cur.Histogram("h", LinearBuckets(0, 1, 8)) // different layout
	ch.Observe(3)
	cur.Histogram("only_cur", LinearBuckets(0, 1, 4)).Observe(5)

	d := cur.Snapshot().Diff(prev.Snapshot())
	got := d.Histograms["h"]
	want := cur.Snapshot().Histograms["h"]
	if got.Count != want.Count || got.Sum != want.Sum || len(got.Counts) != len(want.Counts) {
		t.Errorf("mismatched-shape diff = %+v, want current passed through %+v", got, want)
	}
	// A histogram with no prior also passes through whole.
	oc := d.Histograms["only_cur"]
	if oc.Count != 1 || oc.Sum != 5 {
		t.Errorf("no-prior histogram = %+v, want count 1 sum 5", oc)
	}
}

func TestSnapshotMergeShapeMismatch(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", LinearBuckets(0, 1, 4)).Observe(1)
	b := NewRegistry()
	bh := b.Histogram("h", LinearBuckets(0, 1, 8))
	bh.Observe(2)
	bh.Observe(9)
	m := a.Snapshot().Merge(b.Snapshot())
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 12 {
		t.Fatalf("mismatched-shape merge lost observations: %+v", h)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.insts").Add(123)
	r.Gauge("sim.clq_occ_max").Set(4)
	r.Histogram("sim.sb_occupancy", LinearBuckets(0, 1, 8)).Observe(3)
	want := r.Snapshot()

	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["sim.insts"] != 123 || got.Gauges["sim.clq_occ_max"] != 4 {
		t.Fatalf("round trip lost values: %+v", got)
	}
	h := got.Histograms["sim.sb_occupancy"]
	if h.Count != 1 || h.Sum != 3 {
		t.Fatalf("round trip lost histogram: %+v", h)
	}
}

func TestSnapshotRenderText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.gauge").Set(-3)
	r.Histogram("m.hist", nil).Observe(10)
	out := r.Snapshot().RenderText("metrics")
	for _, want := range []string{"metrics", "a.count", "b.count", "z.gauge", "m.hist", "-3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Deterministic ordering: a.count before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatalf("metrics not sorted:\n%s", out)
	}
}

func TestBucketGenerators(t *testing.T) {
	exp := ExpBuckets(1, 2, 5)
	if len(exp) != 5 {
		t.Fatalf("ExpBuckets len = %d", len(exp))
	}
	for i := 1; i < len(exp); i++ {
		if exp[i] <= exp[i-1] {
			t.Fatalf("ExpBuckets not strictly increasing: %v", exp)
		}
	}
	lin := LinearBuckets(0, 10, 4)
	if lin[0] != 0 || lin[3] != 30 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"col1", "longer-col"},
		Rows:   [][]string{{"a", "b"}, {"wide-value", "c"}},
		Notes:  []string{"a note"},
	}
	text := tab.Render()
	if !strings.Contains(text, "== demo ==") || !strings.Contains(text, "wide-value") ||
		!strings.Contains(text, "note: a note") {
		t.Fatalf("text render:\n%s", text)
	}
	md := tab.RenderMarkdown()
	if !strings.Contains(md, "| col1") || !strings.Contains(md, "| ---") {
		t.Fatalf("markdown render:\n%s", md)
	}
}

// Diff returns s minus prev: counters and histogram counts subtract
// (clamped at zero). Gauges are NOT subtracted — a gauge is a level, not a
// flow, so the difference of two occupancy readings is meaningless; each
// gauge keeps its last value from s. A histogram whose bucket layout
// changed between the snapshots (different Counts length) cannot be
// subtracted either and is passed through from s whole. Use Diff to
// isolate one phase of a longer run.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for n, v := range s.Counters {
		out.Counters[n] = sub(v, prev.Counters[n])
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, v := range s.Histograms {
		p, ok := prev.Histograms[n]
		if !ok || len(p.Counts) != len(v.Counts) {
			out.Histograms[n] = v
			continue
		}
		d := v
		d.Counts = append([]uint64(nil), v.Counts...)
		for i := range d.Counts {
			d.Counts[i] = sub(d.Counts[i], p.Counts[i])
		}
		d.Count = sub(v.Count, p.Count)
		d.Sum = sub(v.Sum, p.Sum)
		out.Histograms[n] = d
	}
	return out
}
