package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes scales the workloads; tests run them at toy size.
type sizes struct {
	fleetLit, fleetDark, scenarioNodes       int // population of each CLI workload
	litReplica, darkReplica, scenarioReplica int // replica lanes
	passRequests                             int // requests in one serve_mixed pass
	setups                                   int // set-ups per run, median reported
}

var fullSizes = sizes{
	fleetLit: 10000, fleetDark: 4000, scenarioNodes: 1024,
	litReplica: 256, darkReplica: 64, scenarioReplica: 64,
	passRequests: 100, setups: 3,
}

// runCtx is one benchmark run: where the binaries are, the budget, and the
// metrics and checks collected so far.
type runCtx struct {
	root, bin, work string
	seed            int64
	budget          time.Duration
	out             io.Writer
	sz              sizes

	metrics           map[string]float64
	attempted, failed int
}

// newRunCtx builds hemsim and hemserved from root's source (untimed) into
// build/bin and makes a scratch directory beside them.
func newRunCtx(root, build string, seed int64, seconds int, out io.Writer, sz sizes) (*runCtx, error) {
	rc := &runCtx{
		root: root, bin: filepath.Join(build, "bin"), seed: seed,
		budget: time.Duration(seconds) * time.Second, out: out, sz: sz,
		metrics: map[string]float64{},
	}
	if err := os.MkdirAll(rc.bin, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", rc.bin+string(filepath.Separator), "./cmd/hemsim", "./cmd/hemserved")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build: %v\n%s", err, msg)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	rc.work = work
	return rc, nil
}

func (rc *runCtx) close() { os.RemoveAll(rc.work) }

func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// check counts one attempted operation or output check, and a failure
// when ok is false.
func (rc *runCtx) check(ok bool, format string, args ...any) bool {
	rc.attempted++
	if !ok {
		rc.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
	}
	return ok
}

// checkErr is check for an operation that returned err.
func (rc *runCtx) checkErr(err error, what string) bool {
	if err != nil {
		return rc.check(false, "%s: %v", what, err)
	}
	return rc.check(true, "")
}

// infof prints an informational line before the result.
func (rc *runCtx) infof(format string, args ...any) {
	fmt.Fprintf(rc.out, "# "+format+"\n", args...)
}

// workload is one benchmark input set: its end-to-end measurement and its
// traced pass.
type workload struct {
	name, why string
	e2e       func(rc *runCtx) error
	traced    func(rc *runCtx) error
}

var workloads = []workload{
	{name: "registry_all", why: "the paper reproduction itself: experiment drivers, the PV array solver and the runner makespan do the work, stepping does little",
		e2e: registryE2E, traced: registryTraced},
	{name: "fleet_lit", why: "10k lit nodes: the live per-step kernel (Newton PV, SC regulator, deadline controller) over 20 epoch barriers; fast-forward only rejects",
		e2e: fleetE2E(litSpec, false), traced: fleetTraced(litSpec, false)},
	{name: "fleet_dark_profiled", why: "mostly dark, profiled fleet: the ledger writes every step and dark nodes step verbatim because profiling turns fast-forward off",
		e2e: fleetE2E(darkSpec, true), traced: fleetTraced(darkSpec, true)},
	{name: "scenario_day", why: "1024-node clear-sky day with gamma radio arrivals: no epochs, aux draws, and fast-forward through the night",
		e2e: scenarioE2E, traced: scenarioTraced},
	{name: "serve_mixed", why: "hemserved under 2 closed-loop clients: cached reports and PV solves mixed with cold fleets and scenarios that churn the LRU",
		e2e: serveE2E, traced: serveTraced},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// procRun is one finished subprocess.
type procRun struct {
	stdout   []byte
	wall     float64 // s
	cpu      float64 // s, user+system
	maxRSSMB float64 // MiB
}

// runProc runs one binary from the build directory to completion, timing
// it from exec to exit and reading its rusage.
func (rc *runCtx) runProc(name string, args ...string) (procRun, error) {
	cmd := exec.Command(filepath.Join(rc.bin, name), args...)
	cmd.Dir = rc.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{}, err
	}
	exited := make(chan struct{})
	hwm := watchPeakRSS(cmd.Process.Pid, name, exited)
	err := cmd.Wait()
	wall := time.Since(start).Seconds()
	close(exited)
	peak := <-hwm
	if err != nil {
		return procRun{}, fmt.Errorf("%s %q: %v: %s", name, args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return procRun{}, errors.New("no rusage for the child process")
	}
	return procRun{
		stdout: stdout.Bytes(), wall: wall,
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		maxRSSMB: peak,
	}, nil
}

// peakRSSMiB reads a process's own resident high-water mark (VmHWM) once
// it runs the named program. The rusage maxrss of a child is no use: it
// also counts the parent's peak, whose memory the child shared until exec.
func peakRSSMiB(pid int, name string) (float64, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil || !bytes.Contains(b, []byte("Name:\t"+name+"\n")) {
		return 0, false
	}
	_, rest, ok := bytes.Cut(b, []byte("VmHWM:"))
	if !ok {
		return 0, false
	}
	f := strings.Fields(string(rest))
	if len(f) < 2 || f[1] != "kB" {
		return 0, false
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	return kb / 1024, err == nil
}

// watchPeakRSS polls the child's high-water mark until exited is closed
// and then sends the last value read. The mark only grows, so the last
// read misses at most the growth of the final poll interval. The first
// read waits one interval: a read while the child execs slows its start.
func watchPeakRSS(pid int, name string, exited <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for {
			select {
			case <-exited:
				out <- peak
				return
			case <-tick.C:
				if v, ok := peakRSSMiB(pid, name); ok {
					peak = v
				}
			}
		}
	}()
	return out
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// repeat runs one unit of work until the budget is spent — it starts
// another unit only while at least half a median unit of budget is left —
// and returns each unit's duration with the factor that normalizes it to
// the reference speed (see reference.go). At least one unit runs.
func (rc *runCtx) repeat(unit func() (float64, error)) (walls, scale []float64, err error) {
	start := time.Now()
	before, blockStart, blocks := refSeconds(), time.Now(), 0
	for {
		w, err := unit()
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, w)
		done := (rc.budget - time.Since(start)).Seconds() < median(walls)/2
		if done || time.Since(blockStart) >= refBlock {
			after := refSeconds()
			for f := refNominal / ((before + after) / 2); len(scale) < len(walls); {
				scale = append(scale, f)
			}
			before, blockStart = after, time.Now()
			blocks++
		}
		if done {
			rc.infof("%d units in %d reference blocks", len(walls), blocks)
			return walls, scale, nil
		}
	}
}

// normalized returns xs[i]*scale[i].
func normalized(xs, scale []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * scale[i]
	}
	return out
}

// measureCLI warms the binary with one untimed `hemsim -list`, then runs
// args repeatedly within the budget, checking each run's output with
// check, and records wall_s, cpu_s and peak_rss_mb.
func (rc *runCtx) measureCLI(args []string, check func(rep int, r procRun) error) error {
	if _, err := rc.runProc("hemsim", "-list"); err != nil {
		return err
	}
	var cpus, rss []float64
	walls, scale, err := rc.repeat(func() (float64, error) {
		r, err := rc.runProc("hemsim", args...)
		if !rc.checkErr(err, "run") {
			return 0, err
		}
		rc.checkErr(check(len(cpus), r), "output")
		cpus = append(cpus, r.cpu)
		rss = append(rss, r.maxRSSMB)
		return r.wall, nil
	})
	if err != nil {
		return err
	}
	rc.infof("hemsim %q: wall %.3f s, scale %.3f", args, walls, scale)
	rc.set("wall_s", median(normalized(walls, scale)))
	rc.set("cpu_s", median(normalized(cpus, scale)))
	rc.set("peak_rss_mb", median(rss))
	return nil
}

// medianSetup times setup n times between two reference runs and records
// the normalized median as setup_s.
func (rc *runCtx) medianSetup(n int, setup func() error) error {
	before := refSeconds()
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	scale := refNominal / ((before + refSeconds()) / 2)
	rc.set("setup_s", median(times)*scale)
	return nil
}

// cancelled is a context that is already done: a run handed it stops at
// its first cancellation point, right after building its population.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// setReplica runs r and records every replica metric.
func (rc *runCtx) setReplica(r *replica) error {
	rep, err := r.run()
	if err != nil {
		return err
	}
	rc.infof("replica %s: %d lanes, %d steps executed, %d skipped, whole %.3f ms",
		r.name, rep.lanes, rep.executed, rep.skipped, rep.wholeNs/1e6)
	rc.set("circuit.steps_executed", float64(rep.executed))
	rc.set("circuit.steps_skipped", float64(rep.skipped))
	rc.set("circuit.skip_ratio", float64(rep.skipped)/float64(rep.executed+rep.skipped))
	rc.set("circuit.ns_per_step", rep.wholeNs/float64(rep.executed))
	self := rep.wholeNs
	for _, layer := range []string{"pv", "reg", "cap", "weather"} {
		c := rep.layers[layer]
		self -= c.est
		perCall := 0.0
		if c.calls > 0 {
			perCall = c.est / float64(c.calls)
		}
		rc.set(layer+".calls", float64(c.calls))
		rc.set(layer+".ns_per_call", perCall)
		rc.set(layer+".share", c.est/rep.wholeNs)
	}
	rc.set("circuit.self_share", self/rep.wholeNs)
	rc.check(self >= 0, "replica %s: replayed layers (%.0f ns) exceed the whole pass (%.0f ns)",
		r.name, rep.wholeNs-self, rep.wholeNs)
	rc.set("sched.calls", float64(rep.onStep))
	rc.set("prof.ledger_share", (rep.profiledNs-rep.verbatimNs)/rep.profiledNs)
	rc.set("prof.vs_unprofiled_ratio", rep.profiledNs/rep.wholeNs)
	rc.set("prof.export_s", rep.exportS)
	return nil
}
