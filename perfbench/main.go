// Command perfbench is the repository benchmark: four workloads that
// separate the cost of the memory image (reset and compare), the
// simulation kernel, the campaign service and the compiler.
// BENCHMARK.json gates campaign-gcc and service-mixed; campaign-lbm and
// paper-eval run by name (BASELINE.md says why), and campaign-gcc's
// traced run also re-drives one paper-eval sweep, so the gated workloads
// measure every layer and check the paper's geomeans.
//
//	bash perfbench/run.sh --workload campaign-gcc --seed 1 --seconds 20 --trace 0
//
// A run with --trace 0 measures the end-to-end metrics with tracing off.
// A run with --trace 1 re-drives the workload with wall-clock spans
// around the public calls into each internal package, reports each
// layer's self time, writes a Perfetto trace under .bench_build/traces,
// and checks that the traced run reproduced the untraced results. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics. BASELINE.md records why each workload exists, its
// parameters, and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/span"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// every one of them. Set-up and simulation speed are counted in CPU
// seconds of the process doing the work, not in wall seconds: on a
// 2-vCPU VM shared with other tenants, wall-clock rates of identical gcc
// campaigns spread about 14% run to run with the neighbours' load,
// CPU-time rates about 5%, and between two sets of ten runs the wall
// medians moved up to 28%, the CPU ones up to 18%. Wall-clock latencies
// are per-layer metrics of the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that never calls
// a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"workload.seed_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"pipeline.new_ms", "ms"},
	{"pipeline.run_ns_per_cycle", "ns"},
	{"pipeline.golden_ms", "ms"},
	{"pipeline.fork_ms", "ms"},
	{"pipeline.reset_us", "us"},
	{"pipeline.exec_us", "us"},
	{"pipeline.classify_us", "us"},
	{"pipeline.exec_share", "ratio"},
	{"pipeline.ns_per_sim_cycle", "ns"},
	{"pipeline.sim_cycles_per_trial", "count"},
	{"isa.image_words", "count"},
	{"fault.prepare_ms", "ms"},
	{"fault.shard_ms", "ms"},
	{"fault.verify_us", "us"},
	{"fault.commit_us", "us"},
	{"fault.finish_ms", "ms"},
	{"fault.outcome.masked", "count"},
	{"fault.outcome.recovered", "count"},
	{"fault.outcome.due", "count"},
	{"fault.outcome.sdc", "count"},
	{"fault.outcome.crash", "count"},
	{"fault.trial_ms_p50", "ms"},
	{"fault.replayed_trials", "count"},
	{"fault.replay_mismatches", "count"},
	{"service.job_turnaround_ms_p50", "ms"},
	{"service.job_turnaround_ms_p90", "ms"},
	{"service.jobs_sampled", "count"},
	{"service.jobs_per_s", "1/s"},
	{"service.program_admit_ms_p50", "ms"},
	{"service.program_admit_ms_p90", "ms"},
	{"service.programs_sampled", "count"},
	{"service.post_job_ms_p50", "ms"},
	{"service.get_job_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.attempt_ms_p50", "ms"},
	{"service.engine_share", "ratio"},
	{"service.polls_per_job", "count"},
	{"service.refused", "count"},
	{"artifact.compiles", "count"},
	{"artifact.hit_ratio", "ratio"},
	{"experiment.simulations", "count"},
	{"experiment.sweep_ms", "ms"},
	{"experiment.turnpike_overhead_gmean", "x"},
	{"experiment.turnstile_overhead_gmean", "x"},
	{"error_rate", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.dropped", "count"},
}

// report is what one workload run produces.
type report struct {
	// problems lists every failed output check; a run with any is
	// reported as incorrect.
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// env is one run's parameters and work directory.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	work     string // .bench_build under the checkout root
}

// tempDir returns a fresh directory under the run's work area.
func (e *env) tempDir(name string) (string, error) {
	return os.MkdirTemp(filepath.Join(e.work, "tmp"), name+"-")
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(*env) (*report, error)
	traced func(*env) (*report, error)
}{
	"campaign-lbm":  {func(e *env) (*report, error) { return runCampaign(e, lbmCampaign) }, func(e *env) (*report, error) { return traceCampaign(e, lbmCampaign) }},
	"campaign-gcc":  {func(e *env) (*report, error) { return runCampaign(e, gccCampaign) }, func(e *env) (*report, error) { return traceCampaign(e, gccCampaign) }},
	"service-mixed": {runService, traceService},
	"paper-eval":    {runPaperEval, tracePaperEval},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: campaign-lbm, campaign-gcc, service-mixed or paper-eval")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root (holds go.mod and .bench_build)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	e := &env{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		work: filepath.Join(absRoot, ".bench_build")}
	if err := os.MkdirAll(filepath.Join(e.work, "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	drive, defs := w.run, endToEnd
	if *trace == 1 {
		drive, defs = w.traced, perLayer
	}
	rep, err := drive(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := emit(rep, defs, *trace == 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// emit prints the metric table to stderr and the result object as the
// last line of stdout. Every metric of defs is printed; a required one
// that was not measured is a benchmark bug.
func emit(rep *report, defs []metricDef, required bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && required {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(os.Stderr, "  %-38s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// selfCPU returns the CPU time, user plus system, this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time, user plus system, another process's
// threads have used, summed from /proc/<pid>/task/*/schedstat (in ns).
func procCPU(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no thread schedstat for pid %d", pid)
	}
	var total time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", p)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// checkDigest compares a determinism digest with the one an earlier run
// of the same workload and seed stored in this checkout, storing it when
// it is the first. It returns false when the two differ.
func (e *env) checkDigest(key, digest string) (bool, error) {
	dir := filepath.Join(e.work, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", e.workload, e.seed, key))
	prev, err := os.ReadFile(path)
	if err == nil {
		return string(prev) == digest, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	tmp, err := os.CreateTemp(dir, ".digest-")
	if err != nil {
		return false, err
	}
	if _, err := tmp.WriteString(digest); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	return true, os.Rename(tmp.Name(), path)
}

// newTracer returns a tracer large enough that no run evicts a span,
// and a context carrying it.
func newTracer() (*span.Tracer, context.Context) {
	t := span.New(span.Config{Capacity: 1 << 20})
	return t, span.Into(context.Background(), t)
}

// finishTrace writes the Perfetto trace, fills the trace.* metrics, and
// fails the run's checks if any span was dropped.
func (e *env) finishTrace(rep *report, t *span.Tracer) (map[string]layerTime, error) {
	recs := t.Spans()
	dir := filepath.Join(e.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := span.WriteChrome(f, t.Epoch(), recs); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rep.metrics["trace.spans"] = float64(len(recs))
	rep.metrics["trace.dropped"] = float64(t.Dropped())
	rep.check(t.Dropped() == 0, "tracer dropped %d spans", t.Dropped())
	st := selfTimes(recs)
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "self time by span (trace: %s)\n", path)
	for _, k := range keys {
		lt := st[k]
		fmt.Fprintf(os.Stderr, "  %-30s n=%-6d self=%-12s total=%s\n", k, lt.Count, lt.Self.Round(time.Microsecond), lt.Total.Round(time.Microsecond))
	}
	return st, nil
}

// overheadPct is the traced run's headline change relative to the
// untraced one, in percent, signed so that positive means tracing cost.
func overheadPct(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	d := (traced - untraced) / untraced * 100
	if higherIsBetter {
		return -d
	}
	return d
}
