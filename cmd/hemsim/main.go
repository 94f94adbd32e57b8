// Command hemsim regenerates the paper's evaluation figures from the
// calibrated models. Run with an experiment ID (fig2 ... fig11b, headline),
// a comma-separated list, or "all". Experiments run on a worker pool (-j)
// with deterministic output: each renders into its own buffer and the
// buffers are flushed in registry order, so the report bytes are identical
// for every -j (only the trailing timing footer varies). Each experiment
// runs once with every requested observer attached: its report, its -csv
// series, its -trace events and its -profile ledgers all come from that
// one run.
//
// With -faults each chaos-capable experiment runs a second time under the
// fault plan in the given JSON file (internal/fault): brownout windows cut
// the light, NVM faults tear checkpoints, and every injection lands in the
// -trace output as a fault.* event. The chaos run's events replace the
// benign run's; the report, series and profile stay the benign run's.
// Same plan + same seed is byte-identical for every -j.
//
// With -fleet the command runs the shared-clock multi-node engine
// (internal/fleet) instead of the figure experiments: N battery-less
// nodes, each with a domain-separated weather stream derived from -seed,
// advanced in epochs on -j workers that claim the live lanes in contiguous
// chunks from one counter (internal/runner.ForEachSpan over
// internal/circuit's batched stepper). The report on stdout is
// byte-identical for every -j and every repetition of the same spec; the
// nodes/sec line goes to stderr so piping stdout stays deterministic.
// Event-horizon fast-forward skips provably-inert node spans — collapsed
// nodes under an exactly-dark sky (see a spec's dark= key) — without
// changing a byte of the report.
//
// With -scenario the command runs a declarative scenario spec
// (internal/scenario) instead of the figure experiments: one JSON document
// composes an energy source (clear or cloudy sky, bench light, a piezo
// impulse-train harvester, a staged indoor-lighting ladder, or a recorded
// trace), a deadline-plus-radio workload with stochastic event arrivals,
// and the run geometry. The report bytes depend only on the spec — parity
// across -j like every other engine. -record captures the
// rendered light trace in a versioned replay file; pointing a spec's
// source at it ({"kind":"trace","path":...}) reproduces the run byte for
// byte.
//
// With -profile, profile-capable experiments run with an exact
// energy-and-time ledger attached to every integration step, and the
// merged ledgers are written as a gzipped pprof profile: two sample
// types, sim_seconds and energy_joules, attributed along component/state
// stacks (cpu/sprint, pv/harvest, ...). Render flamegraphs with
// `go tool pprof -http=: <file>`. Profile bytes are byte-identical for
// every -j.
//
// Usage:
//
//	hemsim [-list] [-csv dir] [-trace file] [-profile file.pb.gz]
//	       [-faults plan.json] [-j N] [-timing] [experiment...]
//	hemsim -fleet n=1000[,horizon=0.05,...] [-seed S] [-trace file]
//	       [-profile file.pb.gz] [-progress] [-j N]
//	hemsim -scenario spec.json [-record trace.json] [-trace file]
//	       [-profile file.pb.gz] [-csv dir] [-j N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hemsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemsim", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments and exit")
	csvDir := fs.String("csv", "", "also write each experiment's series to <dir>/<id>.csv")
	jobs := fs.Int("j", runtime.NumCPU(), "workers: experiments run in parallel, or the goroutines stepping a -fleet or -scenario population")
	timing := fs.Bool("timing", true, "print the per-experiment timing footer on multi-experiment runs")
	traceFile := fs.String("trace", "", "write traced experiments' simulation events to <file> (.json selects Chrome trace format, else JSONL)")
	traceWall := fs.Bool("trace-wall", false, "add wall-clock runner spans (worker, queue wait) to the -trace output; non-deterministic")
	faultsFile := fs.String("faults", "", "run chaos-capable experiments under the fault plan in <file> (JSON; requires -trace)")
	profileFile := fs.String("profile", "", "write an energy-flow pprof profile of profile-capable experiments (or the -fleet run) to <file>")
	fleetSpec := fs.String("fleet", "", "run a shared-clock node fleet with the given spec (e.g. n=1000 or n=500,horizon=0.1) instead of experiments")
	scenarioFile := fs.String("scenario", "", "run the declarative scenario spec in <file> (JSON; internal/scenario) instead of experiments")
	recordFile := fs.String("record", "", "with -scenario, also write the rendered light trace to <file> for later replay via a kind=trace source")
	progress := fs.Bool("progress", false, "with -fleet, print a per-epoch progress ticker to stderr")
	seed := fs.Int64("seed", 0, "master seed for -fleet (overrides a seed= key in the spec)")
	// Accept flags before and after the experiment IDs (`hemsim all -j 4`):
	// the stdlib parser stops at the first positional, so re-enter it after
	// consuming each one.
	var targets []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		targets = append(targets, rest[0])
		rest = rest[1:]
	}
	if *scenarioFile != "" {
		if *fleetSpec != "" {
			return errors.New("-scenario and -fleet are mutually exclusive")
		}
		return runScenario(*scenarioFile, *jobs, *traceFile, *profileFile, *csvDir, *recordFile, stdout)
	}
	if *recordFile != "" {
		return errors.New("-record requires -scenario: it captures the scenario's rendered light trace")
	}
	if *fleetSpec != "" {
		seedSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		return runFleet(*fleetSpec, *seed, seedSet, *jobs, *traceFile, *profileFile, *progress, stdout)
	}
	var plan *fault.Plan
	if *faultsFile != "" {
		if *traceFile == "" {
			return errors.New("-faults requires -trace: injections are reported as fault.* trace events")
		}
		p, err := fault.LoadPlan(*faultsFile)
		if err != nil {
			return err
		}
		plan = &p
	}
	registry := expt.Registry()
	if *list {
		for _, name := range expt.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	if len(targets) == 0 {
		targets = []string{"all"}
	}
	var ids []string
	for _, t := range targets {
		for _, id := range strings.Split(t, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if id == "all" {
				ids = append(ids, expt.Names()...)
				continue
			}
			ids = append(ids, id)
		}
	}

	var work []runner.Job
	batches := make([][]trace.Event, len(ids))  // per-job events, merged in registry order
	profiles := make([]*prof.Profile, len(ids)) // per-job profiles, merged in registry order
	for i, id := range ids {
		e, ok := registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		// Each job fills only its own slots, so the merge order (and so the
		// output bytes) depend only on registry order, never on worker
		// scheduling; per-job profiles also keep the hot loops
		// worker-private (scopes are disjoint across experiments).
		chaos := plan != nil && e.Has(expt.SurfaceChaos)
		traced := *traceFile != "" && e.Has(expt.SurfaceTrace) && !chaos
		profiled := *profileFile != "" && e.Has(expt.SurfaceProfile)
		csv := *csvDir != "" && e.Has(expt.SurfaceSeries)
		work = append(work, runner.Job{ID: id, Priority: expt.Priority(id), Run: func(w io.Writer) error {
			var obs expt.Observe
			rec := trace.NewRecorder()
			if traced {
				obs.Tracer = trace.Prefixed(rec, id)
			}
			if profiled {
				profiles[i] = prof.New()
				obs.Profile = profiles[i]
			}
			r, series, err := e.Run(obs)
			if err != nil {
				return err
			}
			if err := r.Report(w); err != nil {
				return err
			}
			if csv {
				if err := writeCSV(*csvDir, id, series); err != nil {
					return err
				}
			}
			if chaos {
				// The plan perturbs the run, so the chaos events come from a
				// second run; the report above stays the benign one.
				if _, _, err := e.Run(expt.Observe{Tracer: trace.Prefixed(rec, id), Plan: plan}); err != nil {
					return fmt.Errorf("chaos %s: %w", id, err)
				}
			}
			batches[i] = rec.Events()
			return nil
		}})
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	start := time.Now()
	var timings []runner.Result
	first := true
	err := runner.Stream(work, *jobs, func(r runner.Result) error {
		if !first {
			fmt.Fprintln(stdout)
		}
		first = false
		if _, werr := stdout.Write(r.Output); werr != nil {
			return werr
		}
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.ID, r.Err)
		}
		timings = append(timings, r)
		return nil
	})
	if err != nil {
		return err
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile, batches, timings, *traceWall); err != nil {
			return err
		}
	}
	if *profileFile != "" {
		merged := prof.New()
		for _, pp := range profiles {
			if pp != nil {
				merged.Merge(pp)
			}
		}
		if err := prof.WriteFile(*profileFile, merged); err != nil {
			return err
		}
	}
	if *timing && len(work) > 1 {
		writeTimingFooter(stdout, timings, *jobs, time.Since(start))
	}
	return nil
}

// runScenario executes one declarative scenario run (internal/scenario).
// The report bytes on stdout depend only on the spec — byte-identical for
// every -j — so the wall-clock rate goes to stderr. With
// -record, the rendered light trace is written in the versioned replay
// format: swapping the spec's source for {"kind":"trace","path":...}
// reproduces this run's report byte for byte.
func runScenario(specPath string, workers int, traceFile, profileFile, csvDir, recordFile string, stdout io.Writer) error {
	specText, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := scenario.ParseScenario(specText)
	if err != nil {
		return err
	}
	cfg := scenario.Config{Spec: spec, Workers: workers}
	var rec *trace.Recorder
	if traceFile != "" {
		rec = trace.NewRecorder()
		cfg.Tracer = rec
	}
	if profileFile != "" {
		cfg.Profile = prof.New()
		cfg.ProfileScope = "scenario"
	}
	start := time.Now()
	rep, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	if err := rep.Report(stdout); err != nil {
		return err
	}
	if recordFile != "" {
		if err := scenario.WriteTraceFile(recordFile, rep.SourceSamples()); err != nil {
			return err
		}
	}
	if traceFile != "" {
		if err := writeTrace(traceFile, [][]trace.Event{rec.Events()}, nil, false); err != nil {
			return err
		}
	}
	if profileFile != "" {
		if err := prof.WriteFile(profileFile, cfg.Profile); err != nil {
			return err
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
		name := spec.Name
		if name == "" {
			name = "scenario"
		}
		if err := writeCSV(csvDir, name, rep.Series()); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "hemsim: scenario %s: %d node(s) in %s (j=%d)\n",
		specPath, spec.Geometry.Nodes, elapsed.Round(time.Millisecond), workers)
	return nil
}

// runFleet executes one fleet run. The report bytes on stdout depend only
// on the resolved spec — the determinism contract extends the experiments'
// -j parity to fleets — so the wall-clock rate is printed to stderr.
func runFleet(specText string, seed int64, seedSet bool, workers int, traceFile, profileFile string, progress bool, stdout io.Writer) error {
	spec, err := fleet.ParseSpec(specText)
	if err != nil {
		return err
	}
	if seedSet {
		spec.Seed = seed
	}
	cfg := spec.Config()
	cfg.Workers = workers
	var rec *trace.Recorder
	if traceFile != "" {
		rec = trace.NewRecorder()
		cfg.Tracer = rec
	}
	if profileFile != "" {
		cfg.Profile = prof.New()
		cfg.ProfileScope = "fleet"
	}
	if progress {
		// The ticker goes to stderr so piped stdout stays deterministic.
		cfg.OnEpoch = func(s fleet.Snapshot) {
			fmt.Fprintf(os.Stderr, "hemsim: fleet t=%.4fs active=%d completed=%d browned_out=%d harvest=%.3fmJ\n",
				s.Time, s.Active, s.Completed, s.BrownedOut, s.Harvested*1e3)
		}
	}
	start := time.Now()
	rep, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	if err := rep.Report(stdout); err != nil {
		return err
	}
	if traceFile != "" {
		if err := writeTrace(traceFile, [][]trace.Event{rec.Events()}, nil, false); err != nil {
			return err
		}
	}
	if profileFile != "" {
		if err := prof.WriteFile(profileFile, cfg.Profile); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	rate := "n/a"
	if secs := elapsed.Seconds(); secs > 0 {
		rate = fmt.Sprintf("%.0f", float64(spec.N)/secs)
	}
	fmt.Fprintf(os.Stderr, "hemsim: fleet %s: %d nodes in %s (%s nodes/s, j=%d)\n",
		spec, spec.N, elapsed.Round(time.Millisecond), rate, workers)
	return nil
}

// writeTrace merges the per-job event batches (in registry order, so the
// sim-clock portion is byte-identical for every -j) and writes them in the
// format the file extension selects. With wall enabled, each job also gets
// a wall-clock runner span carrying its worker and queue wait.
func writeTrace(path string, batches [][]trace.Event, timings []runner.Result, wall bool) error {
	events := trace.Merge(batches...)
	if wall {
		rec := trace.NewRecorder()
		for _, r := range timings {
			if r.Skipped {
				continue
			}
			queued := r.Queued.Seconds()
			trace.WallSpan(rec, "runner.job", queued, queued+r.Elapsed.Seconds(), r.ID, trace.Args{
				"worker": r.Worker, "queue_wait_s": queued,
			})
		}
		events = trace.Merge(events, rec.Events())
	}
	return trace.WriteFile(path, trace.FormatFor(path), events)
}

// writeTimingFooter reports per-experiment wall-clock plus the aggregate
// speedup the worker pool achieved. Everything above the "-- timing" marker
// is byte-identical across -j values; the footer is the only part that
// varies run to run.
func writeTimingFooter(w io.Writer, timings []runner.Result, jobs int, wall time.Duration) {
	fmt.Fprintf(w, "\n-- timing (j=%d) --\n", jobs)
	var cpu time.Duration
	for _, r := range timings {
		fmt.Fprintf(w, "  %-18s %s\n", r.ID, r.Elapsed.Round(100*time.Microsecond))
		cpu += r.Elapsed
	}
	speedup := float64(cpu) / float64(wall)
	fmt.Fprintf(w, "  %d experiments in %s wall, %s cpu (%.1fx parallel)\n",
		len(timings), wall.Round(time.Millisecond), cpu.Round(time.Millisecond), speedup)
}

// writeCSV exports one run's series to <dir>/<name>.csv.
func writeCSV(dir, name string, series []plot.Series) error {
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := plot.WriteCSV(f, series...); err != nil {
		return fmt.Errorf("csv %s: %w", path, err)
	}
	return f.Close()
}
