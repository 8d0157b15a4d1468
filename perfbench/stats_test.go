package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/obs/span"
	"repro/internal/workload"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100 .. 1
	}
	for _, c := range []struct {
		p          float64
		want       float64
		beyond     int
		enoughTail bool
	}{
		{50, 50, 50, true},
		{90, 90, 10, true}, // exactly ten above: allowed
		{91, 91, 9, false}, // nine above: too few
		{99, 99, 1, false},
		{100, 100, 0, false},
	} {
		v, beyond, ok := percentile(xs, c.p)
		if v != c.want || beyond != c.beyond || ok != c.enoughTail {
			t.Errorf("p%v of 1..100 = (%v, %d beyond, ok=%t), want (%v, %d, %t)",
				c.p, v, beyond, ok, c.want, c.beyond, c.enoughTail)
		}
	}
	// 99 samples: the p90 rank is 90, leaving 9 above it.
	if _, beyond, ok := percentile(xs[:99], 90); ok || beyond != 9 {
		t.Errorf("p90 of 99 samples: %d beyond, ok=%t; want 9, false", beyond, ok)
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", m)
	}
	// highTail reports p95 only where the rule allows it.
	ys := make([]float64, 200)
	for i := range ys {
		ys[i] = float64(i + 1)
	}
	if v := highTail(ys); v != 190 {
		t.Errorf("highTail of 1..200 = %v, want the p95, 190", v)
	}
	if v := highTail(ys[:199]); v != 100 {
		t.Errorf("highTail of 1..199 = %v, want the median, 100", v)
	}
}

func TestTailChecksSampleCount(t *testing.T) {
	rep := newReport()
	tail(rep, "small", make([]float64, 50))
	if len(rep.problems) != 1 {
		t.Fatalf("p90 of 50 samples: %d problems, want 1", len(rep.problems))
	}
	rep = newReport()
	tail(rep, "enough", make([]float64, 100))
	if len(rep.problems) != 0 {
		t.Fatalf("p90 of 100 samples: problems %v", rep.problems)
	}
}

func TestSweepGeomeans(t *testing.T) {
	s := &sweep{turnpike: map[int]map[string]float64{10: {}}, turnstile: map[int]map[string]float64{10: {}}}
	names := workload.Names()
	for i, n := range names {
		// Half the benchmarks at 2x, half at 8x: the geomean is 4x.
		s.turnpike[10][n], s.turnstile[10][n] = 2, 1.5
		if i%2 == 1 {
			s.turnpike[10][n] = 8
		}
	}
	if len(names)%2 != 0 {
		t.Fatalf("%d benchmarks; the test needs an even count", len(names))
	}
	tp, ts := s.gmeans()
	if math.Abs(tp-4) > 1e-12 || math.Abs(ts-1.5) > 1e-12 {
		t.Errorf("gmeans = %v, %v; want 4, 1.5", tp, ts)
	}
	// Any benchmark missing from the sweep reads as 0 and zeroes the
	// geomean, so a lost simulation cannot pass the pinned values.
	delete(s.turnpike[10], names[0])
	if tp, _ := s.gmeans(); tp != 0 {
		t.Errorf("geomean with a missing benchmark = %v, want 0", tp)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	recs := []span.Record{
		{ID: 1, Layer: "bench", Name: "root", Start: at(0), Dur: ms(100)},
		// Two parallel children overlapping on [20, 40): their union
		// is [10, 60), 50 ms, not the 70 ms their durations add to.
		{ID: 2, Parent: 1, Layer: "core", Name: "compile", Start: at(10), Dur: ms(30)},
		{ID: 3, Parent: 1, Layer: "core", Name: "compile", Start: at(20), Dur: ms(40)},
		// A child running past its parent's end only counts inside it.
		{ID: 4, Parent: 1, Layer: "pipeline", Name: "run", Start: at(90), Dur: ms(30)},
		// A grandchild is subtracted from its parent, not the root.
		{ID: 5, Parent: 3, Layer: "pipeline", Name: "new", Start: at(25), Dur: ms(5)},
	}
	st := selfTimes(recs)
	for key, want := range map[string]time.Duration{
		"bench.root":   ms(100 - 50 - 10),
		"core.compile": ms(30 + 40 - 5),
		"pipeline.run": ms(30),
		"pipeline.new": ms(5),
	} {
		if got := st[key].Self; got != want {
			t.Errorf("%s self = %v, want %v", key, got, want)
		}
	}
	if st["core.compile"].Count != 2 || st["core.compile"].Total != ms(70) {
		t.Errorf("core.compile = %+v, want 2 spans totalling 70ms", st["core.compile"])
	}
	if got := meanSelf(st, "core.compile", time.Millisecond); got != 32.5 {
		t.Errorf("mean core.compile self = %vms, want 32.5", got)
	}
	if got := meanSelf(st, "absent", time.Millisecond); got != 0 {
		t.Errorf("mean self of an absent span = %v, want 0", got)
	}
}

func TestErrorRateCountsRefusals(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
	}))
	defer refuse.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"job-1","state":"done"}`))
	}))
	defer ok.Close()

	stats := &loadStats{}
	var rec jobRecord
	for i, base := range []string{ok.URL, refuse.URL, ok.URL, ok.URL} {
		c := &client{base: base, http: ok.Client(), stats: stats}
		err := c.do(context.Background(), "get_job", http.MethodGet, "/jobs/job-1", nil, &rec, &stats.getJob)
		if (err != nil) != (i == 1) {
			t.Fatalf("request %d: err = %v", i, err)
		}
	}
	if stats.requests != 4 || stats.badReqs != 1 || stats.refused != 1 || len(stats.getJob) != 4 {
		t.Fatalf("counted %d requests, %d failed, %d refused, %d latencies; want 4, 1, 1, 4",
			stats.requests, stats.badReqs, stats.refused, len(stats.getJob))
	}
	rep := newReport()
	stats.account(rep)
	if rep.attempted != 4 || rep.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1", rep.attempted, rep.failed)
	}
	if got := errorRate(rep.attempted, rep.failed); got != 0.25 {
		t.Errorf("error rate %v, want 0.25", got)
	}
	if len(rep.problems) == 0 {
		t.Error("a refused request did not fail the run's checks")
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("error rate of nothing attempted = %v, want 0", got)
	}
}

// TestMetricListsMatchBenchmarkJSON pins the metrics each run prints to
// the ones BENCHMARK.json declares, names and units alike.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", c.what, len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", c.what, i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
}
