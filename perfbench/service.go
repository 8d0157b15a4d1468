package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	turnpike "repro"
	"repro/internal/fault"
	"repro/internal/obs/span"
	"repro/internal/rng"
)

// The service-mixed load: serviceClients closed-loop clients, each
// waiting for its job to finish before its next operation. Every
// iteration submits an IR kernel and then a job of serviceTrials trials;
// one iteration in four resubmits an earlier kernel (a cache hit) and
// campaigns it, the other three campaign the built-in gcc at scale 5.
// Clients poll a job every servicePollWait, the cadence of the
// repository's own job clients (the CI scripts sleep 0.2 s between
// polls); turnaround is read from the job record, so it does not depend
// on the cadence.
const (
	serviceClients  = 2
	serviceTrials   = 64
	serviceScalePct = 5
	serviceBoots    = 9
	serviceKey      = "perfbench-key"
	servicePollWait = 200 * time.Millisecond
)

// daemon is one campaignd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	dir    string        // state, tenants file and logs
	base   string        // http://host:port
	log    string        // the daemon's stderr file
	exited chan struct{} // closed once the process is reaped
}

// startDaemon boots campaignd on a fresh state directory under dir with
// the benchmark's tenants file, and returns once /readyz answers 200,
// with the CPU time the daemon used until then.
func startDaemon(e *env, dir string) (*daemon, time.Duration, error) {
	tenants := filepath.Join(dir, "tenants.json")
	// Unlimited rate and stored programs: the anonymous defaults (10
	// POSTs/s, 64 programs) would refuse the benchmark's load.
	cfg := fmt.Sprintf(`{"tenants":[{"id":"perfbench","key":%q,"quotas":{"rate_per_sec":-1,"max_stored_programs":-1}}]}`, serviceKey)
	if err := os.WriteFile(tenants, []byte(cfg), 0o644); err != nil {
		return nil, 0, err
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return nil, 0, err
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, 0, err
	}
	defer stderr.Close()
	cmd := exec.Command(filepath.Join(e.work, "bin", "campaignd"),
		"-addr", "127.0.0.1:0", "-state", filepath.Join(dir, "state"), "-tenants", tenants, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// If the benchmark dies without stopping the daemon, the kernel
	// kills it rather than leaving it serving.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, dir: dir, log: stderr.Name(), exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck — a killed daemon's exit status says nothing new
		close(d.exited)
	}()
	deadline := t0.Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("campaignd exited during boot (log: %s)", d.log)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("campaignd was not ready within 30s (log: %s)", d.log)
		}
		if d.base == "" {
			b, err := os.ReadFile(stdout.Name())
			if err != nil {
				d.kill()
				return nil, 0, err
			}
			if line, ok := strings.CutPrefix(string(b), "campaignd listening on "); ok && strings.HasSuffix(line, "\n") {
				d.base = strings.TrimSpace(line)
			}
		} else if resp, err := http.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				boot, err := procCPU(cmd.Process.Pid)
				if err != nil {
					d.kill()
					return nil, 0, err
				}
				return d, boot, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit (killing
// it if the drain overruns), and removes its directory.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — an exited process is what we want
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
	}
	if err := os.RemoveAll(d.dir); err != nil {
		fmt.Fprintf(os.Stderr, "service-mixed: %v\n", err)
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck — an exited process is what we want
	<-d.exited
}

// bootDaemons boots n daemons in turn, each on a fresh state directory,
// stops all but the last, and returns the last with every boot's CPU
// seconds.
func bootDaemons(e *env, n int) (*daemon, []float64, error) {
	var boots []float64
	for i := 0; ; i++ {
		dir, err := e.tempDir("campaignd")
		if err != nil {
			return nil, nil, err
		}
		d, boot, err := startDaemon(e, dir)
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, boot.Seconds())
		if i == n-1 {
			return d, boots, nil
		}
		d.stop()
	}
}

// jobSpec is the campaignd job submission body.
type jobSpec struct {
	Bench         string `json:"bench"`
	Trials        int    `json:"trials"`
	Seed          int64  `json:"seed"`
	ScalePct      int    `json:"scale_pct,omitempty"`
	FailureBudget int    `json:"failure_budget"`
}

// jobRecord is the part of GET /jobs/{id} the benchmark reads.
type jobRecord struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Error       string        `json:"error"`
	Result      *fault.Result `json:"result"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   time.Time     `json:"started_at"`
	FinishedAt  time.Time     `json:"finished_at"`
}

// cacheStats is the artifact-cache block of a POST /programs response.
type cacheStats struct {
	Hits, Misses, Compiles uint64
}

// jobSample is one finished job as a client saw it.
type jobSample struct {
	spec  jobSpec
	rec   jobRecord
	polls int
}

// turnaround is the job's time from submission to finish, from the
// daemon's own record.
func (j jobSample) turnaround() time.Duration { return j.rec.FinishedAt.Sub(j.rec.SubmittedAt) }

// loadStats is what one window of service load observed.
type loadStats struct {
	mu         sync.Mutex
	wall       time.Duration
	jobs       []jobSample
	admit      []float64 // POST /programs, ms
	postJob    []float64 // POST /jobs, ms
	getJob     []float64 // GET /jobs/{id}, ms
	requests   int
	badReqs    int // non-2xx answers and transport errors
	refused    int // 429 and 503 answers
	badJobs    int // jobs that did not end done with every trial
	badCache   int // fresh kernels served from the store, or resubmissions compiled again
	cache      cacheStats
	submitted  int
	firstProbe *jobSample // first gcc job, for the engine identity check
}

func (l *loadStats) ms(dst *[]float64, d time.Duration) {
	l.mu.Lock()
	*dst = append(*dst, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

// client is one closed-loop load generator.
type client struct {
	base    string
	http    *http.Client
	kernels *kernelGen
	rnd     *rng.Stream
	history []string // submitted kernel texts
	stats   *loadStats
}

// do sends one request and decodes a 2xx JSON answer into out, counting
// the request, its latency, and any failure or refusal.
func (c *client) do(ctx context.Context, name, method, path string, body []byte, out any, lat *[]float64) error {
	_, s := span.Start(ctx, "service", name)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		s.End()
		return err
	}
	if method == http.MethodPost {
		req.Header.Set("X-API-Key", serviceKey)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	s.End()
	c.stats.ms(lat, d)
	c.stats.mu.Lock()
	defer c.stats.mu.Unlock()
	c.stats.requests++
	if err != nil {
		c.stats.badReqs++
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.stats.badReqs++
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.stats.refused++
		}
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		c.stats.badReqs++
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// iteration submits a kernel, then a job, and polls the job until it
// leaves the open states.
func (c *client) iteration(ctx context.Context, i int) error {
	resubmit := i%4 == 3 && len(c.history) > 0
	var src string
	if resubmit {
		src = c.history[c.rnd.Intn(len(c.history))]
	} else {
		src = c.kernels.next()
		c.history = append(c.history, src)
	}
	var prog struct {
		Fingerprint string     `json:"fingerprint"`
		Cached      bool       `json:"cached"`
		Cache       cacheStats `json:"cache"`
	}
	if err := c.do(ctx, "post_program", http.MethodPost, "/programs", []byte(src), &prog, &c.stats.admit); err != nil {
		return err
	}
	c.stats.mu.Lock()
	c.stats.cache = prog.Cache
	if prog.Cached != resubmit {
		c.stats.badCache++
	}
	c.stats.mu.Unlock()
	spec := jobSpec{Bench: "gcc", ScalePct: serviceScalePct, Trials: serviceTrials,
		Seed: int64(c.rnd.Uint64() >> 1), FailureBudget: -1}
	if resubmit {
		spec = jobSpec{Bench: "program:" + prog.Fingerprint, Trials: serviceTrials,
			Seed: spec.Seed, FailureBudget: -1}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	jctx, job := span.Start(ctx, "service", "job")
	defer job.End()
	var rec jobRecord
	if err := c.do(jctx, "post_job", http.MethodPost, "/jobs", body, &rec, &c.stats.postJob); err != nil {
		return err
	}
	c.stats.mu.Lock()
	c.stats.submitted++
	c.stats.mu.Unlock()
	polls := 0
	for rec.State != "done" && rec.State != "failed" && rec.State != "canceled" {
		time.Sleep(servicePollWait)
		polls++
		if err := c.do(jctx, "get_job", http.MethodGet, "/jobs/"+rec.ID, nil, &rec, &c.stats.getJob); err != nil {
			return err
		}
	}
	js := jobSample{spec: spec, rec: rec, polls: polls}
	ok := rec.State == "done" && rec.Result != nil && rec.Result.CompletedTrials == serviceTrials &&
		rec.Result.Outcomes[fault.SDC] == 0 && rec.Result.Outcomes[fault.Crash] == 0
	c.stats.mu.Lock()
	defer c.stats.mu.Unlock()
	c.stats.jobs = append(c.stats.jobs, js)
	if !ok {
		c.stats.badJobs++
		return fmt.Errorf("job %s ended %s: %s", rec.ID, rec.State, rec.Error)
	}
	if c.stats.firstProbe == nil && spec.Bench == "gcc" {
		c.stats.firstProbe = &js
	}
	return nil
}

// drive runs the closed-loop clients against the daemon for the run
// length; each client finishes its iteration in flight. Kernel and job
// seeds derive from the workload seed and the window, so two windows of
// one run submit different programs.
func drive(ctx context.Context, e *env, base string, window int, length time.Duration) *loadStats {
	stats := &loadStats{}
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	defer hc.CloseIdleConnections()
	t0 := time.Now()
	end := t0.Add(length)
	var wg sync.WaitGroup
	for k := 0; k < serviceClients; k++ {
		seed := int64(rng.Mix(rng.Mix(uint64(e.seed))^uint64(window*serviceClients+k)) >> 1)
		c := &client{base: base, http: hc, kernels: newKernelGen(seed), rnd: rng.New(^seed), stats: stats}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(end); i++ {
				if err := c.iteration(ctx, i); err != nil {
					fmt.Fprintf(os.Stderr, "service-mixed: %v\n", err)
				}
			}
		}()
	}
	wg.Wait()
	stats.wall = time.Since(t0)
	return stats
}

// account adds a window's operations to the report: every request and
// every job is one attempted operation.
func (l *loadStats) account(rep *report) {
	rep.attempted += l.requests + l.submitted
	rep.failed += l.badReqs + l.badJobs
	rep.check(l.badReqs == 0, "%d of %d requests failed (%d refused)", l.badReqs, l.requests, l.refused)
	rep.check(l.badJobs == 0, "%d of %d jobs did not end done with all %d trials", l.badJobs, l.submitted, serviceTrials)
	rep.check(l.badCache == 0, "%d program submissions hit the cache when fresh or missed it when resubmitted", l.badCache)
	rep.check(len(l.jobs) > 0, "no job finished")
}

func (l *loadStats) turnarounds() []float64 {
	var out []float64
	for _, j := range l.jobs {
		out = append(out, float64(j.turnaround())/float64(time.Millisecond))
	}
	return out
}

// runService is the untraced service-mixed workload: boot the daemon
// serviceBoots times (the last one serves), drive the closed loop, and
// check one gcc job's Result against the in-process engine.
func runService(e *env) (*report, error) {
	rep := newReport()
	d, boots, err := bootDaemons(e, serviceBoots)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	l := drive(context.Background(), e, d.base, 0, e.seconds)
	cpu, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpu -= cpu0
	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	l.account(rep)
	var cycles uint64
	for _, j := range l.jobs {
		if j.rec.Result != nil {
			cycles += j.rec.Result.Agg.Cycles
		}
	}
	if err := checkAgainstEngine(rep, l.firstProbe); err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(boots)
	rep.metrics["sim_cycles_per_cpu_s"] = float64(cycles) / cpu.Seconds()
	rep.metrics["peak_rss_mb"] = rss
	fmt.Fprintf(os.Stderr, "service-mixed: %d jobs, %d programs, %d requests in %.2fs\n",
		len(l.jobs), len(l.admit), l.requests, l.wall.Seconds())
	return rep, nil
}

// checkAgainstEngine re-runs a service job's campaign in process with
// turnpike.InjectFaults and checks the two Results are byte-identical.
// It runs after the measured window.
func checkAgainstEngine(rep *report, j *jobSample) error {
	if j == nil {
		rep.check(false, "no gcc job finished to check against the engine")
		return nil
	}
	want, err := turnpike.InjectFaults(j.spec.Bench, turnpike.Turnpike, turnpike.FaultCampaignConfig{
		Trials: j.spec.Trials, Seed: j.spec.Seed, ScalePct: j.spec.ScalePct, FailureBudget: j.spec.FailureBudget,
	})
	if err != nil {
		return fmt.Errorf("engine reference for %s: %w", j.rec.ID, err)
	}
	_, a, err := resultDigest(want)
	if err != nil {
		return err
	}
	_, b, err := resultDigest(j.rec.Result)
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(a, b), "job %s result differs from turnpike.InjectFaults for the same spec", j.rec.ID)
	return nil
}

// traceService drives one untraced and one traced window, each against
// a freshly booted daemon: the job store grows with every job and every
// persist rewrites it, so a second window on one daemon would be slower
// for reasons other than tracing. The traced window records a span
// around every request and every job; its jobs' records and phase
// reports give the queue wait, attempt time and engine share. The spans
// wrap the client's requests, so the tracing overhead is the change in
// median admission latency between the windows. Both windows are twice
// the run length, so the p90s have the samples the percentile rule asks
// for.
func traceService(e *env) (*report, error) {
	rep := newReport()
	window := func(ctx context.Context, n int) (*loadStats, *daemon, error) {
		d, _, err := bootDaemons(e, 1)
		if err != nil {
			return nil, nil, err
		}
		l := drive(ctx, e, d.base, n, 2*e.seconds)
		l.account(rep)
		return l, d, nil
	}
	plain, d, err := window(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	d.stop()
	tracer, ctx := newTracer()
	l, d, err := window(ctx, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if _, err := e.finishTrace(rep, tracer); err != nil {
		return nil, err
	}

	var queue, attempt []float64
	var engine, attempts float64
	polls := 0
	hc := &http.Client{Timeout: time.Minute}
	for _, j := range l.jobs {
		polls += j.polls
		queue = append(queue, float64(j.rec.StartedAt.Sub(j.rec.SubmittedAt))/float64(time.Millisecond))
		attempt = append(attempt, float64(j.rec.FinishedAt.Sub(j.rec.StartedAt))/float64(time.Millisecond))
		var ph struct {
			Phases []struct {
				Layer   string `json:"layer"`
				Name    string `json:"name"`
				TotalUS int64  `json:"total_us"`
			} `json:"phases"`
		}
		if err := getJSON(hc, d.base+"/jobs/"+j.rec.ID+"/phases", &ph); err != nil {
			return nil, err
		}
		for _, p := range ph.Phases {
			switch p.Layer + "." + p.Name {
			case "fault.golden_run", "fault.shard_exec":
				engine += float64(p.TotalUS)
			case "service.attempt":
				attempts += float64(p.TotalUS)
			}
		}
	}
	m := rep.metrics
	ta := l.turnarounds()
	m["service.job_turnaround_ms_p50"] = median(ta)
	m["service.job_turnaround_ms_p90"] = tail(rep, "job turnaround", ta)
	m["service.jobs_sampled"] = float64(len(ta))
	m["service.jobs_per_s"] = float64(len(ta)) / l.wall.Seconds()
	m["service.program_admit_ms_p50"] = median(l.admit)
	m["service.program_admit_ms_p90"] = tail(rep, "program admission", l.admit)
	m["service.programs_sampled"] = float64(len(l.admit))
	m["service.post_job_ms_p50"] = median(l.postJob)
	m["service.get_job_ms_p50"] = median(l.getJob)
	m["service.queue_wait_ms_p50"] = median(queue)
	m["service.attempt_ms_p50"] = median(attempt)
	if attempts > 0 {
		m["service.engine_share"] = engine / attempts
	}
	if len(l.jobs) > 0 {
		m["service.polls_per_job"] = float64(polls) / float64(len(l.jobs))
	}
	m["service.refused"] = float64(plain.refused + l.refused)
	m["artifact.compiles"] = float64(l.cache.Compiles)
	if n := l.cache.Hits + l.cache.Misses; n > 0 {
		m["artifact.hit_ratio"] = float64(l.cache.Hits) / float64(n)
	}
	for _, j := range l.jobs {
		if r := j.rec.Result; r != nil {
			m["fault.outcome.masked"] += float64(r.Outcomes[fault.Masked])
			m["fault.outcome.recovered"] += float64(r.Outcomes[fault.Recovered])
			m["fault.outcome.due"] += float64(r.Outcomes[fault.DUE])
			m["fault.outcome.sdc"] += float64(r.Outcomes[fault.SDC])
			m["fault.outcome.crash"] += float64(r.Outcomes[fault.Crash])
		}
	}
	m["error_rate"] = errorRate(rep.attempted, rep.failed)
	m["trace.overhead_pct"] = overheadPct(median(plain.admit), median(l.admit), false)
	return rep, nil
}

// tail is the 90th percentile of xs; a sample too small for the
// percentile rule fails the run's checks.
func tail(rep *report, what string, xs []float64) float64 {
	v, beyond, ok := percentile(xs, 90)
	rep.check(ok, "%s p90 has %d samples beyond it of %d, fewer than %d", what, beyond, len(xs), minBeyond)
	return v
}

// getJSON fetches one JSON document.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
