// Command hemnode runs a configurable battery-less sensor-node campaign:
// a weather trace powers the node while recognition jobs execute under a
// chosen energy-management policy. It is the flag-driven version of the
// sensornode example, for exploring scenarios without editing code.
//
// With -campaigns N > 1 it fans N campaigns (seed, seed+1, ...) out over a
// worker pool (-j) and prints their reports in seed order; the output is
// deterministic and independent of the worker count.
//
// Usage:
//
//	hemnode [-duration 6] [-seed 7] [-policy tracked|fixed|mep]
//	        [-cloudiness 0.4] [-cap 100e-6] [-csv trace.csv]
//	        [-trace events.jsonl] [-profile energy.pb.gz]
//	        [-campaigns 1] [-j N]
//
// Declarative scenario specs (internal/scenario) run under hemsim -scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/imgproc"
	"repro/internal/mppt"
	"repro/internal/plot"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/weather"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hemnode: %v\n", err)
		os.Exit(1)
	}
}

// campaignConfig carries the validated flags of one campaign.
type campaignConfig struct {
	duration   float64
	seed       int64
	policy     string
	cloudiness float64
	capacity   float64
	csvPath    string
	tracePath  string
	profPath   string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hemnode", flag.ContinueOnError)
	var (
		duration   = fs.Float64("duration", 4.0, "campaign length (simulated seconds)")
		seed       = fs.Int64("seed", 7, "weather random seed")
		policy     = fs.String("policy", "tracked", "energy policy: tracked, fixed, or mep")
		cloudiness = fs.Float64("cloudiness", 0.4, "fraction of time under cloud (0..0.9)")
		capacity   = fs.Float64("cap", 100e-6, "storage capacitance (farads)")
		csvPath    = fs.String("csv", "", "write the irradiance trace to this CSV file")
		tracePath  = fs.String("trace", "", "write simulation events to this file (.json selects Chrome trace format, else JSONL)")
		profPath   = fs.String("profile", "", "write the campaign's energy-flow pprof profile to this file")
		campaigns  = fs.Int("campaigns", 1, "number of campaigns to fan out (seeds seed..seed+N-1)")
		jobs       = fs.Int("j", runtime.NumCPU(), "campaigns to run in parallel")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Written so NaN fails every check.
	if !(*duration > 0) || math.IsInf(*duration, 1) || !(*capacity > 0) || math.IsInf(*capacity, 1) {
		return fmt.Errorf("duration and cap must be positive and finite (got %g s, %g F)", *duration, *capacity)
	}
	if !(0 <= *cloudiness && *cloudiness <= 0.9) {
		return fmt.Errorf("cloudiness %g out of [0, 0.9]", *cloudiness)
	}
	if *campaigns < 1 {
		return fmt.Errorf("campaigns must be >= 1")
	}
	if *campaigns > 1 && *csvPath != "" {
		return fmt.Errorf("-csv supports a single campaign (run fan-outs without it)")
	}
	if *campaigns > 1 && *tracePath != "" {
		return fmt.Errorf("-trace supports a single campaign (run fan-outs without it)")
	}
	if *campaigns > 1 && *profPath != "" {
		return fmt.Errorf("-profile supports a single campaign (run fan-outs without it)")
	}

	cfg := campaignConfig{
		duration:   *duration,
		seed:       *seed,
		policy:     *policy,
		cloudiness: *cloudiness,
		capacity:   *capacity,
		csvPath:    *csvPath,
		tracePath:  *tracePath,
		profPath:   *profPath,
	}
	if *campaigns == 1 {
		return campaign(cfg, stdout)
	}

	var work []runner.Job
	for i := 0; i < *campaigns; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		work = append(work, runner.Job{
			ID: fmt.Sprintf("seed=%d", c.seed),
			Run: func(w io.Writer) error {
				fmt.Fprintf(w, "== campaign seed=%d ==\n", c.seed)
				return campaign(c, w)
			},
		})
	}
	first := true
	return runner.Stream(work, *jobs, func(r runner.Result) error {
		if !first {
			fmt.Fprintln(stdout)
		}
		first = false
		if _, err := stdout.Write(r.Output); err != nil {
			return err
		}
		if r.Err != nil {
			return fmt.Errorf("campaign %s: %w", r.ID, r.Err)
		}
		return nil
	})
}

// campaign runs one weather-driven campaign and writes its report.
func campaign(cfg campaignConfig, stdout io.Writer) error {
	// Weather: dwell times chosen so the cloudy fraction matches the flag.
	clearDwell := 2.0 * (1 - cfg.cloudiness)
	cloudyDwell := 2.0 * cfg.cloudiness
	if cloudyDwell == 0 {
		cloudyDwell = 1e-9
	}
	gen := weather.NewSeededGenerator(cfg.seed,
		weather.WithDwellTimes(clearDwell, cloudyDwell),
		weather.WithCloudAttenuation(0.2, 0.07),
		weather.WithRelaxationTime(0.3),
	)
	wx, err := gen.Trace(cfg.duration, 0.005, nil)
	if err != nil {
		return fmt.Errorf("weather: %w", err)
	}
	minIrr, meanIrr, maxIrr := wx.Stats()
	fmt.Fprintf(stdout, "weather: %.1f s, light min/mean/max = %.0f%%/%.0f%%/%.0f%%\n",
		cfg.duration, minIrr*100, meanIrr*100, maxIrr*100)
	if cfg.csvPath != "" {
		if err := writeTraceCSV(cfg.csvPath, wx); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", cfg.csvPath)
	}

	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sc := reg.NewSC()
	storage, err := cap.New(cfg.capacity, 1.0, 2.0)
	if err != nil {
		return fmt.Errorf("capacitor: %w", err)
	}

	var rec *trace.Recorder
	var tracer trace.Tracer // stays nil (tracing off) without -trace
	if cfg.tracePath != "" {
		rec = trace.NewRecorder()
		tracer = rec
	}
	var profile *prof.Profile
	var led *prof.Ledger // stays nil (profiling off) without -profile
	if cfg.profPath != "" {
		profile = prof.New()
		led = profile.Ledger(prof.Scope{Experiment: "hemnode", Node: cfg.policy})
	}

	// The policy picks only the controller (the tracker also its V1/V2
	// comparators); one node assembly runs it.
	var (
		ctl         circuit.Controller
		comparators []circuit.Comparator
		tracker     *mppt.Tracker
	)
	switch cfg.policy {
	case "tracked":
		mgr := core.NewManager(core.NewSystem(cell, proc), sc)
		tracker = &mppt.Tracker{Table: mgr.BuildTrackingTable([]float64{0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0})}
		ctl, comparators = tracker, mppt.Comparators(0.95, 0.85)
	case "fixed":
		ctl = &circuit.FixedPoint{Supply: 0.55}
	case "mep":
		supply, _ := proc.ConventionalMEP()
		ctl = &circuit.FixedPoint{Supply: supply}
	default:
		return fmt.Errorf("unknown policy %q (want tracked, fixed, or mep)", cfg.policy)
	}
	sim, err := circuit.New(circuit.Config{
		Cell:        cell,
		Proc:        proc,
		Reg:         sc,
		Cap:         storage,
		Irradiance:  wx.At,
		Controller:  ctl,
		Comparators: comparators,
		Step:        20e-6,
		MaxTime:     cfg.duration,
		Tracer:      tracer,
		TraceTrack:  cfg.policy,
		Ledger:      led,
	})
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	out, err := sim.Run()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if tracker != nil {
		fmt.Fprintf(stdout, "tracker: %d estimates, %d retargets\n", len(tracker.Estimates), tracker.Retargets)
	}

	frame := float64(imgproc.DefaultCostModel().FrameCycles(64, 64, 512, imgproc.NumClasses))
	fmt.Fprintf(stdout, "policy %q: %.2f G cycles executed = %.0f recognition frames\n",
		cfg.policy, out.CyclesDone/1e9, out.CyclesDone/frame)
	fmt.Fprintf(stdout, "energy harvested: %.1f mJ; storage left at %.2f V\n",
		out.EnergyHarvested*1e3, storage.Voltage())
	if rec != nil {
		if err := trace.WriteFile(cfg.tracePath, trace.FormatFor(cfg.tracePath), rec.Events()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace events written to %s (%d events)\n", cfg.tracePath, rec.Len())
	}
	if profile != nil {
		if err := prof.WriteFile(cfg.profPath, profile); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "energy profile written to %s\n", cfg.profPath)
	}
	return nil
}

// writeTraceCSV exports the irradiance trace.
func writeTraceCSV(path string, tr *weather.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := plot.Series{Name: "irradiance"}
	for i, v := range tr.Samples {
		s.X = append(s.X, float64(i)*tr.Step)
		s.Y = append(s.Y, v)
	}
	if err := plot.WriteCSV(f, s); err != nil {
		return err
	}
	return f.Close()
}
