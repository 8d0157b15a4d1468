package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// testRunner uses a small scale so the full suite stays fast.
func testRunner() *Runner { return NewRunner(6) }

func TestGeomeanAndMean(t *testing.T) {
	if g := Geomean([]float64{1, 4}); g != 2 {
		t.Fatalf("Geomean = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v", g)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestRunnerCaching(t *testing.T) {
	r := testRunner()
	opt := core.TurnpikeAll(4)
	cfg := pipeline.TurnpikeConfig(4, 10)
	a, err := r.Run("gcc", opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("gcc", opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached run differs")
	}
	if len(r.simmed) != 1 {
		t.Fatalf("cache has %d entries", len(r.simmed))
	}
}

// TestRunnerKeysEveryInput: the caches key a compilation by every
// core.Options field and a simulation by every pipeline.Config field,
// so a field no figure varies still gets its own entry instead of a
// result cached for another value.
func TestRunnerKeysEveryInput(t *testing.T) {
	r := NewRunner(3)
	opt, cfg := core.TurnpikeAll(4), pipeline.TurnpikeConfig(4, 10)
	if _, err := r.Run("gcc", opt, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.BranchPenalty = 9
	got, err := r.Run("gcc", opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRunner(3).Run("gcc", opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("BranchPenalty 9 ran %d cycles, a fresh runner %d", got.Cycles, want.Cycles)
	}
	a, err := r.Compile("gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.LoadLatency = 7
	b, err := r.Compile("gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two LoadLatency values share one compiled program")
	}
}

func TestFig18Shape(t *testing.T) {
	res := Fig18()
	w := res.Latency[25]
	if w[300] > w[30] {
		t.Fatalf("latency not decreasing with sensors: %v", w)
	}
	if w[300] < 8 || w[300] > 12 {
		t.Fatalf("300 sensors at 2.5GHz: %d cycles, want ~10", w[300])
	}
	if len(res.Table.Rows) == 0 {
		t.Fatal("empty table")
	}
}

func TestHeadlineShape(t *testing.T) {
	// The paper's central result at small scale: baseline <= turnpike <
	// turnstile (geomean), and turnstile overhead grows with WCDL.
	r := testRunner()
	tp10, err := wcdlSweep(r, core.Turnpike, []int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	ts10, err := wcdlSweep(r, core.Turnstile, []int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	geo := func(m map[string]float64) float64 {
		var xs []float64
		for _, v := range m {
			xs = append(xs, v)
		}
		return Geomean(xs)
	}
	gTP10, gTP50 := geo(tp10.Overhead[10]), geo(tp10.Overhead[50])
	gTS10, gTS50 := geo(ts10.Overhead[10]), geo(ts10.Overhead[50])
	t.Logf("turnpike: DL10 %.3f DL50 %.3f ; turnstile: DL10 %.3f DL50 %.3f", gTP10, gTP50, gTS10, gTS50)
	if gTP10 >= gTS10 || gTP50 >= gTS50 {
		t.Fatalf("turnpike not faster than turnstile: tp=%.3f/%.3f ts=%.3f/%.3f", gTP10, gTP50, gTS10, gTS50)
	}
	if gTS50 <= gTS10 {
		t.Fatalf("turnstile overhead not increasing with WCDL: %.3f -> %.3f", gTS10, gTS50)
	}
	if gTP10 < 0.98 {
		t.Fatalf("turnpike faster than baseline?! %.3f", gTP10)
	}
}

func TestFig4Shape(t *testing.T) {
	r := testRunner()
	res, err := Fig4(r)
	if err != nil {
		t.Fatal(err)
	}
	// Bound placement differs between budgets, so per-benchmark ratios are
	// not strictly ordered; the aggregate must grow and most benchmarks
	// must follow (the paper's 4.1% -> 15% mean effect).
	grew := 0
	var all4, all40 []float64
	for _, b := range sortedBenchNames() {
		all4 = append(all4, res.Ratio[4][b])
		all40 = append(all40, res.Ratio[40][b])
		if res.Ratio[4][b] > res.Ratio[40][b] {
			grew++
		}
		if res.Ratio[4][b] < res.Ratio[40][b]*0.9 {
			t.Errorf("%s: SB4 ratio %.4f well below SB40 %.4f", b, res.Ratio[4][b], res.Ratio[40][b])
		}
	}
	if Mean(all4) <= Mean(all40) {
		t.Fatalf("mean checkpoint ratio did not grow: SB4=%.4f SB40=%.4f", Mean(all4), Mean(all40))
	}
	if grew < len(all4)/2 {
		t.Fatalf("only %d/%d benchmarks grew", grew, len(all4))
	}
}

func TestFig14Fig15Shape(t *testing.T) {
	r := testRunner()
	f14, err := Fig14(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	f15, err := Fig15(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sortedBenchNames() {
		if f14.Ideal[b] > f14.Compact[b]+1e-9 {
			t.Errorf("%s: ideal CLQ slower than compact (%.3f vs %.3f)", b, f14.Ideal[b], f14.Compact[b])
		}
		if f15.Ideal[b] < f15.Compact[b]-1e-9 {
			t.Errorf("%s: ideal CLQ detects fewer WAR-free stores", b)
		}
	}
}

func TestFig21Monotone(t *testing.T) {
	r := testRunner()
	res, err := Fig21(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	geo := func(name string) float64 {
		var xs []float64
		for _, v := range res.Overhead[name] {
			xs = append(xs, v)
		}
		return Geomean(xs)
	}
	first, last := geo(res.Configs[0]), geo(res.Configs[len(res.Configs)-1])
	t.Logf("turnstile %.3f -> turnpike %.3f", first, last)
	if last >= first {
		t.Fatalf("full turnpike (%.3f) not better than turnstile (%.3f)", last, first)
	}
	// Adding the fast-release hardware must not hurt.
	if geo(res.Configs[2]) > geo(res.Configs[0])+1e-9 {
		t.Fatalf("fast release made things worse: %.3f vs %.3f", geo(res.Configs[2]), geo(res.Configs[0]))
	}
}

func TestFig22Shape(t *testing.T) {
	r := testRunner()
	res, err := Fig22(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	geo := func(m map[string]float64) float64 {
		var xs []float64
		for _, v := range m {
			xs = append(xs, v)
		}
		return Geomean(xs)
	}
	// Turnstile improves with SB size.
	if geo(res.Turnstile[40]) > geo(res.Turnstile[4]) {
		t.Fatalf("turnstile SB-40 (%.3f) worse than SB-4 (%.3f)",
			geo(res.Turnstile[40]), geo(res.Turnstile[4]))
	}
	// SB-4 Turnpike beats SB-40 Turnstile (the paper's headline of Fig 22)
	// — allow a tiny tolerance at test scale.
	if geo(res.Turnpike[4]) > geo(res.Turnstile[40])+0.02 {
		t.Fatalf("turnpike SB-4 (%.3f) loses to turnstile SB-40 (%.3f)",
			geo(res.Turnpike[4]), geo(res.Turnstile[40]))
	}
}

func TestFig23SumsToOne(t *testing.T) {
	r := testRunner()
	res, err := Fig23(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sortedBenchNames() {
		sum := 0.0
		for _, c := range Fig23Categories {
			v := res.Breakdown[b][c]
			if v < -1e-9 || v > 1+1e-9 {
				t.Errorf("%s/%s out of range: %v", b, c, v)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: breakdown sums to %.3f", b, sum)
		}
	}
}

func TestFig24Fig25Shape(t *testing.T) {
	r := testRunner()
	f24, err := Fig24(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sortedBenchNames() {
		if f24.Max[b] > 4 {
			t.Errorf("%s: max CLQ occupancy %v > 4", b, f24.Max[b])
		}
		if f24.Avg[b] > f24.Max[b] {
			t.Errorf("%s: avg > max", b)
		}
	}
	f25, err := Fig25(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sortedBenchNames() {
		if f25.CLQ4[b] > f25.CLQ2[b]+1e-9 {
			t.Errorf("%s: CLQ-4 slower than CLQ-2", b)
		}
	}
}

func TestFig26Shape(t *testing.T) {
	r := testRunner()
	res, err := Fig26(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sortedBenchNames() {
		if res.RegionSize[b] < 2 || res.RegionSize[b] > 60 {
			t.Errorf("%s: region size %.1f implausible", b, res.RegionSize[b])
		}
		if res.CodeGrowth[b] < 0 {
			t.Errorf("%s: negative code growth %.2f%%", b, res.CodeGrowth[b])
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tab := Table1()
	s := tab.Render()
	if len(tab.Rows) != 7 || len(s) == 0 {
		t.Fatalf("table 1 malformed: %d rows", len(tab.Rows))
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "x", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.Render()
	if s == "" {
		t.Fatal("empty render")
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "b"}, Rows: [][]string{{"1", "x|y"}}, Notes: []string{"n"}}
	md := tab.RenderMarkdown()
	for _, frag := range []string{"### T", "| a | b |", "| --- | --- |", "x\\|y", "*n*"} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, md)
		}
	}
}
