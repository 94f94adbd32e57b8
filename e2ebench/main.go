// Command e2ebench is the repository's end-to-end benchmark: it measures
// what users run — the hemsim CLI and the hemserved daemon, built from the
// checkout's source — and, in a separate traced pass, how each layer
// contributes.
//
// Run it from the repository root (run.sh builds it with a build cache
// inside the checkout):
//
//	bash e2ebench/run.sh --workload fleet_lit --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured on untraced subprocesses; with
// --trace 1 they are the per-layer ones from the traced pass. -out FILE
// appends the run as one JSON line, and -compare reads two such files (two
// sets of runs of the same or different commits) and prints, for every
// (workload, end-to-end metric), whether the second set is within the
// bound BENCHMARK.json fixes, worse, better, or unresolved because the
// run-to-run spread is wider than the bound.
//
// # Workloads
//
// Every workload's inputs derive from --seed, except registry_all, which
// is the paper reproduction and takes none. Load stays within two cores:
// `-j 2` on the CLI, Workers: 2 in process, two closed-loop HTTP clients.
//
//   - registry_all: `hemsim all -j 2`, the paper reproduction itself. The
//     experiment drivers, the PV array solver and the runner's makespan
//     do the work; steady-state stepping does almost none.
//   - fleet_lit: `hemsim -fleet n=10000,seed=S -j 2`. The live per-step
//     kernel does the work — Newton PV solve, SC regulator, deadline
//     controller — over twenty epoch barriers; fast-forward only rejects.
//   - fleet_dark_profiled: `hemsim -fleet
//     n=4000,seed=S,horizon=10,epoch=0.1,step=2e-4,dark=0.99 -j 2 -profile
//     F`. The same layers used differently: the ledger writes on every
//     step and, because the profiler turns fast-forward off, dark nodes
//     are stepped verbatim. PV does almost nothing here.
//   - scenario_day: `hemsim -scenario` on a 1024-node clear-sky day with
//     gamma radio arrivals. No epochs, radio aux draws, and fast-forward
//     through the night.
//   - serve_mixed: hemserved under two closed-loop clients sending passes
//     of 100 seeded requests: 75 cached registry reports, 10 PV solves on
//     8 fixed irradiances (solver-cache hits), 10 cold 64-node fleets and
//     5 cold 16-node scenarios, each with a fresh seed. The cold keys
//     stream through the report LRU, so cached latency shows both CPU
//     contention and eviction pressure.
//
// # End-to-end metrics (--trace 0)
//
// A unit of work is one CLI invocation, or for serve_mixed one pass of
// 100 requests. Times are normalized to the reference speed of the host
// (reference.go): the host's speed drifts by 20% and more, and a fixed
// kernel run between blocks of work measures the drift.
//
//   - wall_s (s): median wall-clock time of a unit of work.
//   - cpu_s (s): median user+system CPU of the program per unit.
//   - peak_rss_mb (MiB): median peak resident set (the program's own
//     VmHWM; rusage would also count the benchmark's memory).
//   - setup_s (s): median of several set-ups: `hemsim -list` for
//     registry_all; population build (the run called with a cancelled
//     context) for the fleet and scenario workloads; exec to /healthz plus
//     priming the 24 hot reports for serve_mixed.
//
// Failed operations and failed output checks are counted in "failed"
// against "attempted" rather than as a metric. Every output is checked:
// registry reports against the golden files, fleet and scenario reports
// byte for byte across repetitions (and against the in-process engine in
// the traced pass), profiles across repetitions, and every HTTP response
// for status 200 and a well-formed body (experiment bodies against the
// goldens).
//
// # Per-layer metrics (--trace 1)
//
// Each line names the end-to-end metric and workloads a layer's numbers
// should move. A layer a workload does not run reads 0.
//
//   - Kernel replica, on every workload (see replica.go): the workload's
//     nodes — the registry's demo fleet, the fleet's first 256 or 64 nodes,
//     64 scenario nodes with the radio off, serve_mixed's cold fleet —
//     rebuilt from public parts and replayed layer by layer.
//     circuit.steps_executed, .steps_skipped, .skip_ratio, .ns_per_step
//     and .self_share (stepper, controller and CPU model); pv, reg, cap and
//     weather .calls, .ns_per_call and .share; sched.calls → wall_s on
//     fleet_lit, fleet_dark_profiled and scenario_day.
//   - prof.ledger_share (profiled over verbatim stepping),
//     prof.vs_unprofiled_ratio (profiled over fast-forwarded) and
//     prof.export_s (WritePprof; the real profile on fleet_dark_profiled)
//     → wall_s on fleet_dark_profiled.
//   - fleet.build_s → setup_s; fleet.epochs, .active_node_epochs,
//     .epoch_p50_ms, .epoch_max_ms (gaps between OnEpoch calls) and
//     .reduce_s (last barrier to return) → wall_s on the fleet workloads.
//   - scenario.source_s, .build_s → setup_s and scenario.ffwd_steps (from
//     a tracer) → wall_s on scenario_day.
//   - expt.cpu_ms, expt.slowest_ms and runner.makespan_slack_ms (wall over
//     the longer of the slowest experiment and cpu/j), from the `hemsim
//     all` timing footer → wall_s on registry_all.
//   - serve.rps, .cached_p50_ms, .cached_p99_ms, .cold_p50_ms,
//     .cold_p90_ms, the per-route p50s and .client_minus_server_ms from
//     client timings; serve.report_cache_hit_ratio, .report_cache_coalesced,
//     pv.cache_hit_ratio, runner.gate_waited and serve.stale_served from
//     /metrics deltas → wall_s and cpu_s on serve_mixed.
//   - runner.parallelism (program CPU over wall) → wall_s everywhere;
//     trace.overhead_ratio (traced in-process wall over untraced wall).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec declares one metric; BENCHMARK.json must list the same set.
type metricSpec struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: allowed worsening, share of median
	engine     bool    // per-layer metric of an engine layer; 0 where the workload does not run it
}

var endToEnd = []metricSpec{
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.15},
	{name: "setup_s", unit: "s", bound: 0.25},
}

var perLayer = []metricSpec{
	{name: "circuit.steps_executed", unit: "count"},
	{name: "circuit.steps_skipped", unit: "count"},
	{name: "circuit.skip_ratio", unit: "ratio", higher: true},
	{name: "circuit.ns_per_step", unit: "ns"},
	{name: "circuit.self_share", unit: "share"},
	{name: "pv.calls", unit: "count"},
	{name: "pv.ns_per_call", unit: "ns"},
	{name: "pv.share", unit: "share"},
	{name: "reg.calls", unit: "count"},
	{name: "reg.ns_per_call", unit: "ns"},
	{name: "reg.share", unit: "share"},
	{name: "cap.calls", unit: "count"},
	{name: "cap.ns_per_call", unit: "ns"},
	{name: "cap.share", unit: "share"},
	{name: "weather.calls", unit: "count"},
	{name: "weather.ns_per_call", unit: "ns"},
	{name: "weather.share", unit: "share"},
	{name: "sched.calls", unit: "count"},
	{name: "prof.ledger_share", unit: "share"},
	{name: "prof.vs_unprofiled_ratio", unit: "ratio"},
	{name: "prof.export_s", unit: "s"},
	{name: "fleet.build_s", unit: "s", engine: true},
	{name: "fleet.epochs", unit: "count", engine: true},
	{name: "fleet.active_node_epochs", unit: "count", engine: true},
	{name: "fleet.epoch_p50_ms", unit: "ms", engine: true},
	{name: "fleet.epoch_max_ms", unit: "ms", engine: true},
	{name: "fleet.reduce_s", unit: "s", engine: true},
	{name: "scenario.source_s", unit: "s", engine: true},
	{name: "scenario.build_s", unit: "s", engine: true},
	{name: "scenario.ffwd_steps", unit: "count", engine: true},
	{name: "expt.cpu_ms", unit: "ms", engine: true},
	{name: "expt.slowest_ms", unit: "ms", engine: true},
	{name: "runner.makespan_slack_ms", unit: "ms", engine: true},
	{name: "runner.parallelism", unit: "ratio", higher: true},
	{name: "runner.gate_waited", unit: "count", engine: true},
	{name: "serve.rps", unit: "1/s", higher: true, engine: true},
	{name: "serve.cached_p50_ms", unit: "ms", engine: true},
	{name: "serve.cached_p99_ms", unit: "ms", engine: true},
	{name: "serve.cold_p50_ms", unit: "ms", engine: true},
	{name: "serve.cold_p90_ms", unit: "ms", engine: true},
	{name: "serve.experiment_get.p50_ms", unit: "ms", engine: true},
	{name: "serve.pv_solve.p50_ms", unit: "ms", engine: true},
	{name: "serve.fleet_get.p50_ms", unit: "ms", engine: true},
	{name: "serve.scenarios_run.p50_ms", unit: "ms", engine: true},
	{name: "serve.client_minus_server_ms", unit: "ms", engine: true},
	{name: "serve.report_cache_hit_ratio", unit: "ratio", higher: true, engine: true},
	{name: "serve.report_cache_coalesced", unit: "count", engine: true},
	{name: "serve.stale_served", unit: "count", engine: true},
	{name: "pv.cache_hit_ratio", unit: "ratio", higher: true, engine: true},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but failed an output check.
var errIncorrect = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed every workload input derives from")
		seconds = fs.Int("seconds", 20, "measurement budget of one run (s)")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
		outPath = fs.String("out", "", "append the run as one JSON line to this file")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareSets("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	root, err := os.Getwd() // the repository root, whose source is measured
	if err != nil {
		return err
	}
	rc, err := newRunCtx(root, filepath.Join(root, ".bench_build"), *seed, *seconds, stdout, fullSizes)
	if err != nil {
		return err
	}
	defer rc.close()

	if *traced == 1 {
		err = w.traced(rc)
	} else {
		err = w.e2e(rc)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer
	}
	res, err := rc.result(specs)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, record{Workload: w.name, Seed: *seed, Trace: *traced, Result: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// result assembles the final line: every declared metric, with the units
// the declaration fixes, after printing each by name.
func (rc *runCtx) result(specs []metricSpec) (result, error) {
	res := result{
		Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed,
		Metrics: make(map[string]metric, len(specs)),
	}
	if res.Attempted < 1 {
		return res, errors.New("nothing was attempted")
	}
	for _, s := range specs {
		v, ok := rc.metrics[s.name]
		if !ok && !s.engine {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(rc.out, "%-32s %16.6g %s\n", s.name, v, s.unit)
	}
	return res, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
