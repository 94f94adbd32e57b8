package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// cliJobs is the worker count of every CLI and in-process run: the
// benchmark box has two cores, and nothing overrides GOMAXPROCS.
const cliJobs = 2

// --- registry_all ---

// goldens reads every experiment's golden report.
func goldens(root string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, id := range expt.Names() {
		b, err := os.ReadFile(filepath.Join(root, "internal", "expt", "testdata", "golden", id+".txt"))
		if err != nil {
			return nil, err
		}
		out[id] = b
	}
	return out, nil
}

// goldenRegistry is what `hemsim all` prints above its timing footer: the
// golden report of every experiment in registry order, blank-line joined.
func goldenRegistry(root string) ([]byte, error) {
	g, err := goldens(root)
	if err != nil {
		return nil, err
	}
	var parts [][]byte
	for _, id := range expt.Names() {
		parts = append(parts, g[id])
	}
	return bytes.Join(parts, []byte("\n")), nil
}

// splitFooter separates the reports from the `-- timing` footer.
func splitFooter(out []byte) (reports, footer []byte) {
	if i := bytes.Index(out, []byte("\n-- timing")); i >= 0 {
		return out[:i], out[i+1:]
	}
	return out, nil
}

var registryArgs = []string{"all", "-j", fmt.Sprint(cliJobs)}

func registryE2E(rc *runCtx) error {
	golden, err := goldenRegistry(rc.root)
	if err != nil {
		return err
	}
	if err := rc.measureCLI(registryArgs, func(_ int, r procRun) error {
		reports, _ := splitFooter(r.stdout)
		if !bytes.Equal(reports, golden) {
			return errors.New("registry reports differ from the goldens")
		}
		return nil
	}); err != nil {
		return err
	}
	// Process start plus registry construction, the fixed cost of every
	// hemsim invocation: a millisecond, so sampled many times.
	return rc.medianSetup(25, func() error {
		_, err := rc.runProc("hemsim", "-list")
		return err
	})
}

// footerStats parses the timing footer: the per-experiment times, the
// total wall and the summed cpu.
func footerStats(footer []byte) (perID map[string]time.Duration, wall, cpu time.Duration, err error) {
	perID = map[string]time.Duration{}
	for _, line := range strings.Split(string(footer), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 2:
			d, err := time.ParseDuration(f[1])
			if err != nil {
				return nil, 0, 0, fmt.Errorf("footer line %q: %w", line, err)
			}
			perID[f[0]] = d
		case len(f) >= 6 && f[1] == "experiments" && f[4] == "wall,":
			if wall, err = time.ParseDuration(f[3]); err != nil {
				return nil, 0, 0, err
			}
			if cpu, err = time.ParseDuration(f[5]); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	if wall == 0 || len(perID) == 0 {
		return nil, 0, 0, errors.New("no timing footer")
	}
	return perID, wall, cpu, nil
}

func registryTraced(rc *runCtx) error {
	golden, err := goldenRegistry(rc.root)
	if err != nil {
		return err
	}
	r, err := rc.runProc("hemsim", registryArgs...)
	if !rc.checkErr(err, "hemsim all") {
		return err
	}
	reports, footer := splitFooter(r.stdout)
	rc.check(bytes.Equal(reports, golden), "registry reports differ from the goldens")
	perID, wall, cpu, err := footerStats(footer)
	if err != nil {
		return err
	}
	var longest time.Duration
	for _, d := range perID {
		if d > longest {
			longest = d
		}
	}
	floor := cpu / cliJobs
	if longest > floor {
		floor = longest
	}
	rc.set("expt.cpu_ms", ms(cpu))
	rc.set("expt.slowest_ms", ms(longest))
	rc.set("runner.makespan_slack_ms", ms(wall-floor))
	rc.set("runner.parallelism", r.cpu/r.wall)

	// Traced pass: every experiment in process, one at a time, each call
	// timed from outside.
	start := time.Now()
	var rendered [][]byte
	for _, id := range expt.Names() {
		t0 := time.Now()
		b, err := expt.Render(id)
		if !rc.checkErr(err, "render "+id) {
			return err
		}
		rc.infof("expt %-18s %8.1f ms", id, ms(time.Since(t0)))
		rendered = append(rendered, b)
	}
	rc.set("trace.overhead_ratio", time.Since(start).Seconds()/r.wall)
	rc.check(bytes.Equal(bytes.Join(rendered, []byte("\n")), golden), "in-process registry reports differ from the goldens")

	// The registry's fleet and scenario experiments, layer by layer.
	fr, err := expt.ExtFleet()
	if err != nil {
		return err
	}
	if _, _, _, err := rc.tracedFleet(fr.Spec, 1, false); err != nil {
		return err
	}
	sr, err := expt.ExtScenario()
	if err != nil {
		return err
	}
	if _, _, err := rc.tracedScenario(sr.Spec, 1); err != nil {
		return err
	}
	return rc.setReplica(fleetReplica("ext-fleet", fr.Spec, fr.Spec.N))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- fleets ---

func litSpec(rc *runCtx) (fleet.Spec, error) {
	return fleet.ParseSpec(fmt.Sprintf("n=%d,seed=%d", rc.sz.fleetLit, rc.seed))
}

func darkSpec(rc *runCtx) (fleet.Spec, error) {
	return fleet.ParseSpec(fmt.Sprintf("n=%d,seed=%d,horizon=10,epoch=0.1,step=2e-4,dark=0.99", rc.sz.fleetDark, rc.seed))
}

// fleetArgs is the hemsim command line of a fleet workload.
func fleetArgs(spec fleet.Spec, profile string) []string {
	args := []string{"-fleet", spec.String(), "-j", fmt.Sprint(cliJobs)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	return args
}

// checkFleetReport is the structural check of a fleet report.
func checkFleetReport(out []byte, spec fleet.Spec) error {
	head := fmt.Sprintf("== FLEET: %d battery-less nodes on a shared clock ==\n  spec: %s\n", spec.N, spec)
	if !bytes.HasPrefix(out, []byte(head)) {
		return fmt.Errorf("fleet report does not start with %q", head)
	}
	return nil
}

// readProfile reads and decodes a pprof file.
func readProfile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := prof.ReadPprof(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if len(d.Samples) == 0 {
		return nil, errors.New("profile has no samples")
	}
	return b, nil
}

// fleetConfig is the in-process equivalent of the fleet workload's command.
func fleetConfig(spec fleet.Spec, workers int, profiled bool) fleet.Config {
	cfg := spec.Config()
	cfg.Workers = workers
	if profiled {
		cfg.Profile = prof.New()
		cfg.ProfileScope = "fleet" // hemsim's scope, so the bytes match
	}
	return cfg
}

// buildFleet runs spec with a cancelled context, which returns right after
// the population is built.
func buildFleet(spec fleet.Spec, workers int, profiled bool) error {
	cfg := fleetConfig(spec, workers, profiled)
	cfg.Ctx = cancelled()
	if _, err := fleet.Run(cfg); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled fleet run returned %v", err)
	}
	return nil
}

func fleetE2E(specOf func(*runCtx) (fleet.Spec, error), profiled bool) func(*runCtx) error {
	return func(rc *runCtx) error {
		spec, err := specOf(rc)
		if err != nil {
			return err
		}
		profile := ""
		if profiled {
			profile = filepath.Join(rc.work, "fleet.pb.gz")
		}
		var first, firstProf []byte
		if err := rc.measureCLI(fleetArgs(spec, profile), func(rep int, r procRun) error {
			if err := checkFleetReport(r.stdout, spec); err != nil {
				return err
			}
			var pb []byte
			if profiled {
				if pb, err = readProfile(profile); err != nil {
					return err
				}
			}
			if rep == 0 {
				first, firstProf = r.stdout, pb
				return nil
			}
			if !bytes.Equal(r.stdout, first) || !bytes.Equal(pb, firstProf) {
				return fmt.Errorf("run %d output differs from run 0", rep)
			}
			return nil
		}); err != nil {
			return err
		}
		return rc.medianSetup(rc.sz.setups, func() error { return buildFleet(spec, cliJobs, profiled) })
	}
}

// eventCounter is the traced pass's tracer: it sums the steps the stepper
// reports fast-forwarding.
type eventCounter struct {
	mu        sync.Mutex
	ffwdSteps int
}

func (c *eventCounter) Emit(ev trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Kind == "circuit.ffwd" {
		if n, ok := ev.Args["steps"].(int); ok {
			c.ffwdSteps += n
		}
	}
}

// tracedFleet runs spec in process with a tracer and an epoch hook, and
// records the fleet layer's metrics. It returns the report bytes, the pprof
// bytes when profiled, and the traced run's wall time.
func (rc *runCtx) tracedFleet(spec fleet.Spec, workers int, profiled bool) (report, pprof []byte, wall float64, err error) {
	var builds []float64
	for i := 0; i < rc.sz.setups; i++ {
		start := time.Now()
		if err := buildFleet(spec, workers, profiled); err != nil {
			return nil, nil, 0, err
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	cfg := fleetConfig(spec, workers, profiled)
	cfg.Tracer = &eventCounter{}
	var barriers []time.Time
	active := 0
	cfg.OnEpoch = func(s fleet.Snapshot) {
		barriers = append(barriers, time.Now())
		active += s.Active
	}
	start := time.Now()
	rep, err := fleet.Run(cfg)
	end := time.Now()
	if !rc.checkErr(err, "fleet "+spec.String()) {
		return nil, nil, 0, err
	}
	var gaps []float64 // epoch durations after the first, which includes the build
	for i := 1; i < len(barriers); i++ {
		gaps = append(gaps, ms(barriers[i].Sub(barriers[i-1])))
	}
	maxGap := 0.0
	for _, g := range gaps {
		if g > maxGap {
			maxGap = g
		}
	}
	rc.set("fleet.build_s", median(builds))
	rc.set("fleet.epochs", float64(len(barriers)))
	rc.set("fleet.active_node_epochs", float64(active))
	rc.set("fleet.epoch_p50_ms", median(gaps))
	rc.set("fleet.epoch_max_ms", maxGap)
	if len(barriers) > 0 {
		rc.set("fleet.reduce_s", end.Sub(barriers[len(barriers)-1]).Seconds())
	}
	rc.infof("traced fleet %s: %.3f s", spec, end.Sub(start).Seconds())

	var buf bytes.Buffer
	if err := rep.Report(&buf); err != nil {
		return nil, nil, 0, err
	}
	if profiled {
		var pb bytes.Buffer
		t0 := time.Now()
		if err := prof.WritePprof(&pb, cfg.Profile); err != nil {
			return nil, nil, 0, err
		}
		rc.set("prof.export_s", time.Since(t0).Seconds())
		pprof = pb.Bytes()
	}
	return buf.Bytes(), pprof, end.Sub(start).Seconds(), nil
}

func fleetTraced(specOf func(*runCtx) (fleet.Spec, error), profiled bool) func(*runCtx) error {
	return func(rc *runCtx) error {
		spec, err := specOf(rc)
		if err != nil {
			return err
		}
		lanes := rc.sz.litReplica
		if profiled {
			lanes = rc.sz.darkReplica
		}
		// The replica runs first: the traced run below reports the real
		// profile export, which replaces the replica's.
		if err := rc.setReplica(fleetReplica("fleet", spec, lanes)); err != nil {
			return err
		}
		profile := ""
		if profiled {
			profile = filepath.Join(rc.work, "fleet.pb.gz")
		}
		if _, err := rc.runProc("hemsim", "-list"); err != nil {
			return err
		}
		r, err := rc.runProc("hemsim", fleetArgs(spec, profile)...)
		if !rc.checkErr(err, "hemsim fleet") {
			return err
		}
		rc.set("runner.parallelism", r.cpu/r.wall)
		report, pb, wall, err := rc.tracedFleet(spec, cliJobs, profiled)
		if err != nil {
			return err
		}
		rc.set("trace.overhead_ratio", wall/r.wall)
		rc.check(bytes.Equal(report, r.stdout), "in-process fleet report differs from hemsim's")
		if profiled {
			cli, err := readProfile(profile)
			rc.checkErr(err, "profile")
			rc.check(bytes.Equal(pb, cli), "in-process profile differs from hemsim's")
			// Profiling must not change the physics: the unprofiled run
			// (with fast-forward) prints the same report.
			plain, err := fleet.Run(fleetConfig(spec, cliJobs, false))
			if !rc.checkErr(err, "unprofiled fleet") {
				return err
			}
			var buf bytes.Buffer
			if err := plain.Report(&buf); err != nil {
				return err
			}
			rc.check(bytes.Equal(buf.Bytes(), r.stdout), "unprofiled fleet report differs from the profiled one")
		}
		return nil
	}
}

// --- scenario_day ---

// scenarioSpec is the scenario_day spec: a clear-sky day that ends at 60%
// of the horizon, so the night is exactly dark.
func scenarioSpec(seed int64, nodes int) (scenario.Spec, error) {
	return scenario.ParseScenario([]byte(fmt.Sprintf(`{"seed":%d,`+
		`"source":{"kind":"clearsky","peak":1,"sunrise_frac":0,"sunset_frac":0.6},`+
		`"workload":{"job_cycles":4e6,"deadline_frac":0.4,"aux_w":1e-4,`+
		`"arrivals":{"process":"gamma","rate_hz":4,"shape":0.5}},`+
		`"geometry":{"nodes":%d,"horizon_s":4,"step_s":1e-4}}`, seed, nodes)))
}

// scenarioArgs writes the spec file and returns the hemsim command line.
func (rc *runCtx) scenarioArgs(spec scenario.Spec) ([]string, error) {
	path := filepath.Join(rc.work, "scenario.json")
	if err := os.WriteFile(path, []byte(spec.String()), 0o644); err != nil {
		return nil, err
	}
	return []string{"-scenario", path, "-j", fmt.Sprint(cliJobs)}, nil
}

// buildScenario runs spec with a cancelled context, which returns once the
// source is rendered and the population built.
func buildScenario(spec scenario.Spec, workers int) error {
	_, err := scenario.Run(scenario.Config{Spec: spec, Workers: workers, Ctx: cancelled()})
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled scenario run returned %v", err)
	}
	return nil
}

func scenarioE2E(rc *runCtx) error {
	spec, err := scenarioSpec(rc.seed, rc.sz.scenarioNodes)
	if err != nil {
		return err
	}
	args, err := rc.scenarioArgs(spec)
	if err != nil {
		return err
	}
	head := []byte(fmt.Sprintf("  seed %d, %d node(s),", spec.Seed, spec.Geometry.Nodes))
	var first []byte
	if err := rc.measureCLI(args, func(rep int, r procRun) error {
		if !bytes.Contains(r.stdout, head) {
			return fmt.Errorf("scenario report lacks %q", head)
		}
		if rep == 0 {
			first = r.stdout
		} else if !bytes.Equal(r.stdout, first) {
			return fmt.Errorf("run %d output differs from run 0", rep)
		}
		return nil
	}); err != nil {
		return err
	}
	return rc.medianSetup(rc.sz.setups, func() error { return buildScenario(spec, cliJobs) })
}

// tracedScenario runs spec in process with a tracer and records the
// scenario layer's metrics. It returns the report bytes and the wall time.
func (rc *runCtx) tracedScenario(spec scenario.Spec, workers int) ([]byte, float64, error) {
	t0 := time.Now()
	if _, err := spec.SourceTrace(); err != nil {
		return nil, 0, err
	}
	rc.set("scenario.source_s", time.Since(t0).Seconds())
	var builds []float64
	for i := 0; i < rc.sz.setups; i++ {
		start := time.Now()
		if err := buildScenario(spec, workers); err != nil {
			return nil, 0, err
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	rc.set("scenario.build_s", median(builds))
	tr := &eventCounter{}
	start := time.Now()
	rep, err := scenario.Run(scenario.Config{Spec: spec, Workers: workers, Tracer: tr})
	wall := time.Since(start).Seconds()
	if !rc.checkErr(err, "scenario") {
		return nil, 0, err
	}
	rc.set("scenario.ffwd_steps", float64(tr.ffwdSteps))
	var buf bytes.Buffer
	if err := rep.Report(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), wall, nil
}

func scenarioTraced(rc *runCtx) error {
	spec, err := scenarioSpec(rc.seed, rc.sz.scenarioNodes)
	if err != nil {
		return err
	}
	r, err := scenarioReplica("scenario", spec, rc.sz.scenarioReplica)
	if err != nil {
		return err
	}
	if err := rc.setReplica(r); err != nil {
		return err
	}
	args, err := rc.scenarioArgs(spec)
	if err != nil {
		return err
	}
	if _, err := rc.runProc("hemsim", "-list"); err != nil {
		return err
	}
	cli, err := rc.runProc("hemsim", args...)
	if !rc.checkErr(err, "hemsim scenario") {
		return err
	}
	rc.set("runner.parallelism", cli.cpu/cli.wall)
	report, wall, err := rc.tracedScenario(spec, cliJobs)
	if err != nil {
		return err
	}
	rc.set("trace.overhead_ratio", wall/cli.wall)
	rc.check(bytes.Equal(report, cli.stdout), "in-process scenario report differs from hemsim's")
	return nil
}
