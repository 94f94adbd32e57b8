package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/mppt"
	"repro/internal/prof"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Manager is the holistic energy-management runtime: it plans operating
// points with the Sec. IV/V analyses and executes them on the transient
// simulator with time-based MPP tracking (Sec. VI.A) and sprint/bypass
// deadline scheduling (Sec. VI.B). It is the public entry point the
// examples and the system demonstration (Fig. 11b) build on.
type Manager struct {
	sys    *System
	r      reg.Regulator
	tracer trace.Tracer
}

// NewManager returns a Manager over the system and regulator.
func NewManager(sys *System, r reg.Regulator) *Manager {
	return &Manager{sys: sys, r: r}
}

// WithTracer attaches an event tracer to the manager's planning decisions
// and to the simulations it launches (unless a run config overrides it).
// It returns the manager for chaining; a nil tracer disables tracing.
func (m *Manager) WithTracer(t trace.Tracer) *Manager {
	m.tracer = t
	return m
}

// runTracer resolves a run config's tracer: an explicit override wins,
// otherwise the manager's tracer applies.
func (m *Manager) runTracer(override trace.Tracer) trace.Tracer {
	if override != nil {
		return override
	}
	return m.tracer
}

// orTrack returns track, or fallback when track is empty.
func orTrack(track, fallback string) string {
	if track != "" {
		return track
	}
	return fallback
}

// PlanPerformance returns the best performance-oriented operating point at
// the given irradiance, applying the bypass rule: regulated MPP operation
// when it wins, direct connection otherwise.
func (m *Manager) PlanPerformance(irradiance float64) (Point, error) {
	d := m.sys.DecideBypass(m.r, irradiance)
	if trace.On(m.tracer) {
		// Planning is timeless: plan events sit at t=0 on the sim clock and
		// rely on sequence order (BuildTrackingTable emits one per level).
		pt := d.Regulated
		if d.Bypass {
			pt = d.Unregulated
		}
		trace.Instant(m.tracer, "core.plan", 0, "", trace.Args{
			"irradiance": irradiance, "bypass": d.Bypass,
			"supply_v": pt.Supply, "frequency_hz": pt.Frequency,
			"load_w": pt.LoadPower,
		})
	}
	if d.Bypass {
		if d.Unregulated.Frequency <= 0 {
			return d.Unregulated, fmt.Errorf("%w: no operation at irradiance %.3g", ErrNoFeasiblePoint, irradiance)
		}
		return d.Unregulated, nil
	}
	return d.Regulated, nil
}

// BuildTrackingTable pre-characterises the harvester at the given
// irradiance levels and plans each with the holistic performance rule,
// producing the lookup table the time-based MPP tracker indexes.
func (m *Manager) BuildTrackingTable(levels []float64) *mppt.Table {
	return mppt.BuildTable(m.sys.Cell, levels, func(irr, vmpp, pmpp float64) (float64, float64, bool) {
		pt, err := m.PlanPerformance(irr)
		if err != nil {
			// Unrunnable level: park at the minimum voltage, clock gated.
			return m.sys.Proc.MinVoltage(), 0, true
		}
		return pt.Supply, pt.Frequency, pt.RegulatorName == "Bypass"
	})
}

// TrackedRunConfig parameterises RunTracked.
type TrackedRunConfig struct {
	Cap        *cap.Capacitor          // storage node (required)
	Irradiance func(t float64) float64 // light profile (required)
	Levels     []float64               // table characterisation levels (required)
	V1, V2     float64                 // estimation comparator thresholds (V), V1 > V2
	Duration   float64                 // simulated horizon (s)
	Step       float64                 // integration step (s); 0 selects 2 us
	TraceEvery int                     // trace decimation; 0 disables

	// ClockLevels quantises the clock generator; empty means continuous.
	ClockLevels []float64

	// Tracer receives simulation events; nil falls back to the manager's
	// tracer (WithTracer), and nil there disables event tracing.
	Tracer trace.Tracer
	// TraceTrack labels this run's events; empty selects "tracked".
	TraceTrack string
	// Ledger, when non-nil, accumulates the run's exact energy-and-time
	// profile (internal/prof); nil keeps the step loop allocation-free.
	Ledger *prof.Ledger
}

// TrackedResult is the outcome of a tracked run.
type TrackedResult struct {
	Outcome   *circuit.Outcome
	Estimates []float64 // input-power estimates made by the tracker (W)
	Retargets int       // plan switches performed
}

// RunTracked executes MPP-tracked operation on the transient simulator:
// the tracker holds the storage node near the MPP of the assumed light
// level and re-estimates the input power from V1->V2 crossing times when
// the light changes (Fig. 8).
func (m *Manager) RunTracked(cfg TrackedRunConfig) (*TrackedResult, error) {
	step := cfg.Step
	if step == 0 {
		step = 2e-6
	}
	table := m.BuildTrackingTable(cfg.Levels)
	tracker := &mppt.Tracker{
		Table:        table,
		V1Index:      0,
		V2Index:      1,
		InitialEntry: table.Len() - 1, // assume the brightest level at start
	}
	sim, err := circuit.New(circuit.Config{
		Cell:       m.sys.Cell,
		Proc:       m.sys.Proc,
		Reg:        m.r,
		Cap:        cfg.Cap,
		Irradiance: cfg.Irradiance,
		Controller: tracker,
		Comparators: []circuit.Comparator{
			{Threshold: cfg.V1, Hysteresis: 0.004},
			{Threshold: cfg.V2, Hysteresis: 0.004},
		},
		Step:        step,
		MaxTime:     cfg.Duration,
		TraceEvery:  cfg.TraceEvery,
		ClockLevels: cfg.ClockLevels,
		Tracer:      m.runTracer(cfg.Tracer),
		TraceTrack:  orTrack(cfg.TraceTrack, "tracked"),
		Ledger:      cfg.Ledger,
	})
	if err != nil {
		return nil, fmt.Errorf("assemble tracked run: %w", err)
	}
	out, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &TrackedResult{
		Outcome:   out,
		Estimates: tracker.Estimates,
		Retargets: tracker.Retargets,
	}, nil
}

// DeadlineRunConfig parameterises RunDeadlineJob.
type DeadlineRunConfig struct {
	Cap        *cap.Capacitor          // storage node (required)
	Irradiance func(t float64) float64 // light profile (required)
	Cycles     float64                 // job length N (required)
	Deadline   float64                 // completion window T (s) (required)
	Sprint     float64                 // sprint factor s in [0, 1)
	Bypass     bool                    // enable regulator bypass on dropout
	Step       float64                 // integration step (s); 0 selects 2 us
	MaxTime    float64                 // horizon (s); 0 selects 2*Deadline
	TraceEvery int                     // trace decimation; 0 disables

	// StopOnBrownout ends the run at the first processor halt, freezing the
	// energy bookkeeping at that instant for fair policy comparisons.
	StopOnBrownout bool

	// StopOnDropout ends the run when the regulator cannot sustain the
	// required supply and bypass is disabled (the conventional baseline).
	StopOnDropout bool

	// ClockLevels quantises the clock generator; empty means continuous.
	ClockLevels []float64

	// Tracer receives simulation events; nil falls back to the manager's
	// tracer (WithTracer), and nil there disables event tracing.
	Tracer trace.Tracer
	// TraceTrack labels this run's events; empty selects "deadline".
	TraceTrack string
	// Ledger, when non-nil, accumulates the run's exact energy-and-time
	// profile (internal/prof); nil keeps the step loop allocation-free.
	Ledger *prof.Ledger
}

// DeadlineResult is the outcome of a deadline-constrained run.
type DeadlineResult struct {
	Outcome    *circuit.Outcome
	BypassedAt float64 // when the controller bypassed the regulator (s); <0 if never
}

// RunDeadlineJob executes a deadline-constrained job with the configured
// policy (constant-speed when Sprint == 0 and Bypass == false; the paper's
// proposed operation with Sprint > 0 and Bypass == true), reproducing the
// Fig. 9b/11b scenarios.
func (m *Manager) RunDeadlineJob(cfg DeadlineRunConfig) (*DeadlineResult, error) {
	step := cfg.Step
	if step == 0 {
		step = 2e-6
	}
	maxTime := cfg.MaxTime
	if maxTime == 0 {
		maxTime = 2 * cfg.Deadline
	}
	ctl := &sched.DeadlineController{
		Cycles:        cfg.Cycles,
		Deadline:      cfg.Deadline,
		Sprint:        cfg.Sprint,
		AllowBypass:   cfg.Bypass,
		StopOnDropout: cfg.StopOnDropout,
	}
	sim, err := circuit.New(circuit.Config{
		Cell:           m.sys.Cell,
		Proc:           m.sys.Proc,
		Reg:            m.r,
		Cap:            cfg.Cap,
		Irradiance:     cfg.Irradiance,
		Controller:     ctl,
		Step:           step,
		MaxTime:        maxTime,
		JobCycles:      cfg.Cycles,
		TraceEvery:     cfg.TraceEvery,
		StopOnBrownout: cfg.StopOnBrownout,
		ClockLevels:    cfg.ClockLevels,
		Tracer:         m.runTracer(cfg.Tracer),
		TraceTrack:     orTrack(cfg.TraceTrack, "deadline"),
		Ledger:         cfg.Ledger,
	})
	if err != nil {
		return nil, fmt.Errorf("assemble deadline run: %w", err)
	}
	out, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &DeadlineResult{Outcome: out, BypassedAt: ctl.BypassedAt}, nil
}
