// Package circuit is a fixed-timestep transient simulator of the paper's
// battery-less power network: a photovoltaic cell charging a storage
// capacitor, from which the microprocessor draws either through an on-chip
// regulator or directly (bypass mode). It integrates the node equation
//
//	C * dVcap/dt = Ipv(Vcap, irradiance(t)) - Iload(Vcap)
//
// with comparator threshold-crossing events delivered to a pluggable
// Controller, and records waveform traces. This replaces the paper's test
// PCB and Cadence Virtuoso transient simulations (Fig. 8, Fig. 11b).
//
// All quantities use SI units: volts, amps, watts, seconds, joules, hertz.
package circuit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/trace"
)

// Errors returned by this package.
var (
	// ErrMissingComponent indicates a Config without a required component.
	ErrMissingComponent = errors.New("circuit: missing required component")

	// ErrInvalidStep indicates a non-positive integration step or horizon.
	ErrInvalidStep = errors.New("circuit: step and max time must be positive")

	// ErrInvalidClockLevel indicates a clock level that is negative, NaN or
	// infinite.
	ErrInvalidClockLevel = errors.New("circuit: clock levels must be finite and non-negative")

	// ErrTwoLightInputs indicates a Config that sets both Irradiance and
	// IrradianceSource.
	ErrTwoLightInputs = errors.New("circuit: set one of Irradiance and IrradianceSource, not both")
)

// Storage is the energy store at the harvester node. *cap.Capacitor is the
// canonical implementation; cap.Federation (multiple capacitors behind a
// selector switch) also satisfies it.
type Storage interface {
	// Voltage returns the node voltage (V).
	Voltage() float64
	// ApplyCurrent integrates a net charging current (A) over dt seconds
	// and returns the new voltage.
	ApplyCurrent(current, dt float64) float64
	// Capacitance returns the effective capacitance at the node (F).
	Capacitance() float64
}

var _ Storage = (*cap.Capacitor)(nil)

// Comparator is a voltage comparator watching the capacitor node, as placed
// on the paper's test PCB to serve as the energy monitor. Hysteresis
// prevents event chatter around the threshold.
type Comparator struct {
	Threshold  float64 // trip voltage (V)
	Hysteresis float64 // total hysteresis band (V), centred on Threshold
}

// ThresholdEvent reports a comparator crossing.
type ThresholdEvent struct {
	Index     int     // index into Config.Comparators
	Threshold float64 // the comparator's trip voltage (V)
	Rising    bool    // true when the node crossed upward
	Time      float64 // simulation time of the crossing (s)
}

// Controller reacts to simulation progress by adjusting the DVFS point and
// the regulator/bypass mode. Implementations must only mutate the
// simulation through the State mutators.
type Controller interface {
	// Init is called once before the first step.
	Init(s *State)
	// OnStep is called after every integration step.
	OnStep(s *State)
	// OnThreshold is called when a comparator fires, after OnStep.
	OnThreshold(s *State, ev ThresholdEvent)
}

// Sample is one recorded trace point.
type Sample struct {
	Time       float64 // (s)
	CapVoltage float64 // solar/storage node voltage (V)
	Supply     float64 // effective processor supply (V)
	Frequency  float64 // effective clock frequency (Hz)
	SolarPower float64 // power harvested from the cell (W)
	LoadPower  float64 // power consumed by the processor (W)
	Bypass     bool    // regulator bypassed
	Halted     bool    // processor halted (supply below minimum)
}

// Trace is a recorded waveform.
type Trace struct {
	Samples []Sample
}

// Outcome summarises a completed simulation run.
type Outcome struct {
	Completed       bool    // the job's cycle budget was reached
	CompletionTime  float64 // time the job finished (s), valid if Completed
	BrownedOut      bool    // the processor halted before finishing
	BrownoutTime    float64 // first halt time (s), valid if BrownedOut
	Duration        float64 // total simulated time (s)
	CyclesDone      float64 // clock cycles executed
	EnergyHarvested float64 // energy drawn from the cell (J)
	EnergyDelivered float64 // energy consumed by the processor (J)
	EnergyLost      float64 // conversion losses in the regulator (J)
	EnergyAux       float64 // energy drawn by the auxiliary load (J)
	FinalCapVoltage float64 // node voltage at the end (V)
	Stopped         bool    // a controller requested the stop
	StopReason      string  // reason passed to State.Stop
	StoppedAt       float64 // time of the controller stop (s)
	Trace           *Trace  // nil unless tracing was enabled
}

// Config assembles a simulation.
type Config struct {
	Cell *pv.Cell       // harvester (required)
	Proc *cpu.Processor // load (required)
	Reg  reg.Regulator  // regulator for non-bypass mode (required; pure methods)
	Cap  Storage        // storage node (required)

	// Irradiance returns the light level (fraction of full sun) at time t.
	// A Config sets exactly one of Irradiance and IrradianceSource.
	Irradiance func(t float64) float64

	// IrradianceSource is the light level as an event source: At returns
	// it at time t, and NextChange tells the stepper how far ahead it is
	// provably constant, enabling fast-forward over dead spans (see
	// DESIGN.md "Event-horizon stepping"). A Config sets exactly one of
	// Irradiance and IrradianceSource. Fast-forward also requires the
	// Controller to implement Quiescent and — because skipped steps
	// evaluate neither — At and AuxLoad to be pure functions of t.
	IrradianceSource EventSource

	// Controller drives DVFS and mode decisions. Required.
	Controller Controller

	// Comparators watch the capacitor node.
	Comparators []Comparator

	// AuxLoad, when non-nil, draws additional power (W) directly from the
	// storage node at time t — radio transmit bursts, sensor sampling, or
	// any peripheral outside the processor's regulator. Negative values are
	// treated as zero.
	AuxLoad func(t float64) float64

	// ClockLevels, when non-empty, quantises the commanded clock to the
	// given frequencies (Hz): the effective clock is the highest level at
	// or below the command (0 when the command is below every level). The
	// paper's test chip has a discrete clock generator (Fig. 10); an empty
	// slice models an ideal continuously-tunable clock.
	ClockLevels []float64

	// Step is the integration timestep (s). Required, > 0.
	Step float64

	// MaxTime is the simulation horizon (s). Required, > 0.
	MaxTime float64

	// JobCycles is the clock-cycle budget of the workload; the simulation
	// stops when it is reached. Zero runs to MaxTime.
	JobCycles float64

	// TraceEvery records one trace sample every n steps; 0 disables tracing.
	TraceEvery int

	// Tracer, when non-nil, receives simulation events (mode transitions,
	// comparator crossings, controller decisions) keyed to simulated time.
	// Nil disables event tracing: the hot loop then pays one nil comparison
	// per potential event and allocates nothing.
	Tracer trace.Tracer

	// TraceTrack labels this run's events (e.g. the experiment variant) so
	// multi-run traces keep one timeline lane per run.
	TraceTrack string

	// Ledger, when non-nil, receives this run's exact energy-flow profile:
	// every step's dt and load energy land in the active time bin
	// (dead/brownout when halted, cpu/idle when the clock is gated,
	// otherwise the phase the controller declared via SetProfilePhase) and
	// the step's harvest/reverse/loss/aux energy in the matching flow bins.
	// Fast-forwarded spans are credited to dead/brownout with the bits the
	// skipped steps would have written, so profiling keeps the fast path.
	// Nil disables profiling: the step loop then pays one nil comparison
	// per step and allocates nothing (see prof package doc).
	Ledger *prof.Ledger

	// StopOnBrownout ends the run at the first processor halt when true;
	// otherwise the simulation continues (the node may recover).
	StopOnBrownout bool

	// NoFastForward disables event-horizon fast-forward even when an
	// IrradianceSource and a Quiescent controller are present, forcing
	// verbatim stepping. Output is byte-identical either way (the
	// differential parity suite enforces it); the flag exists for that
	// suite and for debugging.
	NoFastForward bool
}

// State is the live simulation state exposed to controllers.
type State struct {
	cfg Config

	time       float64
	freqTarget float64 // commanded clock frequency (Hz)
	vddTarget  float64 // commanded supply voltage (V)
	bypass     bool

	// opValid reports that the operating point below was resolved at
	// opVcap under the present commands; a command that changes a bit
	// clears it. resolveOperatingPoint is a pure function of vcap, the
	// commands and bypass (Proc, Reg and ClockLevels are fixed after New),
	// so a settled node, whose vcap repeats its bits, resolves with one
	// compare.
	opValid bool

	// Derived per step; all but solarPow by resolveOperatingPoint, at the
	// node voltage opVcap:
	effSupply float64 // effective supply voltage after dropout limiting (V)
	effFreq   float64 // effective clock frequency (Hz)
	halted    bool
	solarPow  float64
	loadPow   float64
	inputPow  float64
	opVcap    float64

	cyclesDone float64
	compAbove  []bool

	// pvSolver warm-starts the cell's implicit-equation solve across steps:
	// vcap moves slowly per step, so the previous operating point lets
	// Newton replace the bisection's ~45 exponentials with 1-2. Results are
	// bit-identical to the stateless solve (see pv.CurrentWarm).
	pvSolver pv.SolverState

	// supplyMemo memoizes the CPU model at the last effective supply: a
	// regulated output repeats its voltage step after step, so the leakage
	// exponential runs only when it moves, and the alpha law only when a
	// clock is not certified below fmax, as a bypassed core's supply moves
	// every step. Results are bit-identical to the Processor's methods
	// (see cpu.SupplyMemo).
	supplyMemo cpu.SupplyMemo

	stopRequested bool
	stopReason    string

	// profPhase is the time bin the controller last declared; the profiler
	// overrides it with dead/brownout and cpu/idle from circuit state (see
	// profileStep). Untouched when cfg.Ledger is nil.
	profPhase prof.Bin

	outcome Outcome
}

// Stop ends the simulation at the end of the current step, e.g. when a
// controller declares the mission failed (regulator dropout without a
// bypass path). The reason is recorded in the Outcome.
func (s *State) Stop(reason string) {
	s.stopRequested = true
	if s.stopReason == "" {
		s.stopReason = reason
	}
}

// Time returns the current simulation time (s).
func (s *State) Time() float64 { return s.time }

// CapVoltage returns the solar/storage node voltage (V).
func (s *State) CapVoltage() float64 { return s.cfg.Cap.Voltage() }

// Frequency returns the effective clock frequency (Hz).
func (s *State) Frequency() float64 { return s.effFreq }

// MaxFrequency returns Processor().MaxFrequency(Supply()). The supply memo
// evaluates the alpha law at most once per supply, and only when asked: a
// step whose clock it certified below fmax has left none to serve.
func (s *State) MaxFrequency() float64 {
	return s.supplyMemo.MaxFrequency(s.cfg.Proc, s.effSupply)
}

// CyclesDone returns the clock cycles executed so far.
func (s *State) CyclesDone() float64 { return s.cyclesDone }

// Bypassed reports whether the regulator is bypassed.
func (s *State) Bypassed() bool { return s.bypass }

// InputPower returns the power (W) drawn from the storage node in the last
// step (load power plus conversion losses).
func (s *State) InputPower() float64 { return s.inputPow }

// Step returns the integration timestep (s).
func (s *State) Step() float64 { return s.cfg.Step }

// ComparatorThreshold returns the trip voltage (V) of the comparator at the
// given index, or 0 if the index is out of range.
func (s *State) ComparatorThreshold(index int) float64 {
	if index < 0 || index >= len(s.cfg.Comparators) {
		return 0
	}
	return s.cfg.Comparators[index].Threshold
}

// Halted reports whether the processor is currently halted.
func (s *State) Halted() bool { return s.halted }

// Tracing reports whether event tracing is active. Controllers guard
// argument construction with it so untraced runs allocate nothing.
func (s *State) Tracing() bool { return s.cfg.Tracer != nil }

// TraceInstant emits an instant event at the current simulated time on the
// run's track. A nil tracer makes it a no-op.
func (s *State) TraceInstant(kind string, args trace.Args) {
	trace.Instant(s.cfg.Tracer, kind, s.time, s.cfg.TraceTrack, args)
}

// TraceBegin opens a span at the current simulated time.
func (s *State) TraceBegin(kind string, args trace.Args) {
	trace.Begin(s.cfg.Tracer, kind, s.time, s.cfg.TraceTrack, args)
}

// TraceEnd closes a span at the current simulated time.
func (s *State) TraceEnd(kind string, args trace.Args) {
	trace.End(s.cfg.Tracer, kind, s.time, s.cfg.TraceTrack, args)
}

// Processor returns the processor model, for controllers that plan with it.
func (s *State) Processor() *cpu.Processor { return s.cfg.Proc }

// Regulator returns the regulator model.
func (s *State) Regulator() reg.Regulator { return s.cfg.Reg }

// Capacitor returns the storage capacitor.
func (s *State) Capacitor() Storage { return s.cfg.Cap }

// SetFrequency commands the clock frequency (Hz). The effective frequency
// is additionally capped by the supply voltage's maximum.
func (s *State) SetFrequency(f float64) {
	if f < 0 {
		f = 0
	}
	if math.Float64bits(f) != math.Float64bits(s.freqTarget) {
		s.opValid = false
	}
	s.freqTarget = f
}

// SetSupply commands the regulator output voltage (V). Ignored in bypass
// mode, where the supply tracks the capacitor node.
func (s *State) SetSupply(v float64) {
	if v < 0 {
		v = 0
	}
	if math.Float64bits(v) != math.Float64bits(s.vddTarget) {
		s.opValid = false
	}
	s.vddTarget = v
}

// SetBypass switches between regulated and direct-connection operation.
func (s *State) SetBypass(on bool) {
	if on != s.bypass {
		s.opValid = false
	}
	s.bypass = on
}

// SetProfilePhase declares the workload phase subsequent steps' time and
// load energy are attributed to when profiling is on (cpu/active,
// cpu/sprint, intermittent/checkpoint, ...). Like every controller
// command it takes effect from the next step. A no-op without a Ledger —
// controllers may call it unconditionally.
func (s *State) SetProfilePhase(b prof.Bin) { s.profPhase = b }

// Simulator runs a configured transient simulation, either in one shot
// (Run) or incrementally as a resumable stepper (Init / StepTo / Outcome,
// see stepper.go). The two drive the identical per-step kernel, so a run
// advanced in arbitrary StepTo increments is bit-identical to a single Run.
type Simulator struct {
	state State

	// Stepper bookkeeping (stepper.go). steps is the integer step budget,
	// next the index of the next step to execute.
	steps       int
	next        int
	waveform    *Trace
	prevBypass  bool
	prevHalted  bool
	initialized bool
	finished    bool
	finalized   bool

	// Event-horizon fast-forward (ffwd.go). ffwd is latched by Init when
	// the config qualifies; quiescent is the controller's optional
	// capability; stepsSkipped counts steps proven inert and jumped over;
	// ffUntil/ffDark cache the irradiance source's constancy horizon so a
	// long dead span asks the source once, not once per attempt. The
	// bools share one word with the stepper's (TestSimulatorSize).
	ffwd         bool
	ffDark       bool
	quiescent    Quiescent
	stepsSkipped int
	ffUntil      float64
}

// New validates the configuration and returns a ready simulator.
func New(cfg Config) (*Simulator, error) {
	sim := &Simulator{}
	if err := sim.Configure(cfg); err != nil {
		return nil, err
	}
	return sim, nil
}

// Configure validates cfg and sets up the zero Simulator s in place:
// New's body without the allocation, so a caller can lay its lanes out in
// one contiguous slab and set each up where it lives (NewBatch, and the
// population runner's workers). s must be the zero value, such as an
// element of a fresh slab.
func (s *Simulator) Configure(cfg Config) error {
	switch {
	case cfg.Cell == nil:
		return fmt.Errorf("%w: Cell", ErrMissingComponent)
	case cfg.Proc == nil:
		return fmt.Errorf("%w: Proc", ErrMissingComponent)
	case cfg.Reg == nil:
		return fmt.Errorf("%w: Reg", ErrMissingComponent)
	case cfg.Cap == nil:
		return fmt.Errorf("%w: Cap", ErrMissingComponent)
	case cfg.Irradiance == nil && cfg.IrradianceSource == nil:
		return fmt.Errorf("%w: Irradiance", ErrMissingComponent)
	case cfg.Irradiance != nil && cfg.IrradianceSource != nil:
		return ErrTwoLightInputs
	case cfg.Controller == nil:
		return fmt.Errorf("%w: Controller", ErrMissingComponent)
	}
	if cfg.Step <= 0 || cfg.MaxTime <= 0 {
		return fmt.Errorf("%w: step=%g maxTime=%g", ErrInvalidStep, cfg.Step, cfg.MaxTime)
	}
	s.state.cfg = cfg
	if len(cfg.ClockLevels) > 0 {
		// Validate, copy, sort ascending and deduplicate once, so the
		// per-step quantisation is a binary search over a strictly
		// increasing slice.
		for _, l := range cfg.ClockLevels {
			if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
				return fmt.Errorf("%w: got %g", ErrInvalidClockLevel, l)
			}
		}
		levels := append([]float64(nil), cfg.ClockLevels...)
		sort.Float64s(levels)
		uniq := levels[:1]
		for _, l := range levels[1:] {
			if l != uniq[len(uniq)-1] {
				uniq = append(uniq, l)
			}
		}
		s.state.cfg.ClockLevels = uniq
	}
	s.state.compAbove = make([]bool, len(cfg.Comparators))
	return nil
}

// Models returns the cell, processor and regulator the simulator runs: the
// immutable models a population builds once and shares across its lanes.
func (s *Simulator) Models() (*pv.Cell, *cpu.Processor, reg.Regulator) {
	cfg := &s.state.cfg
	return cfg.Cell, cfg.Proc, cfg.Reg
}

// Run integrates the network until the job completes, the horizon elapses,
// or (with StopOnBrownout) the processor halts. It is a thin loop over the
// resumable stepper (stepper.go): Init, step to the horizon, finalise.
// It may be called once; mixing it with explicit StepTo calls simply
// finishes whatever remains.
func (s *Simulator) Run() (*Outcome, error) {
	if err := s.Init(); err != nil {
		return nil, err
	}
	if _, err := s.StepTo(s.state.cfg.MaxTime); err != nil {
		return nil, err
	}
	return s.Outcome(), nil
}

// resolveOperatingPoint computes the effective supply, frequency and power
// flows for the current commanded point and node voltage. A vcap with the
// bits of the last resolve, under unchanged commands, finds them in place.
func (st *State) resolveOperatingPoint(vcap float64) {
	if st.opValid && math.Float64bits(vcap) == math.Float64bits(st.opVcap) {
		return
	}
	st.opValid, st.opVcap = true, vcap
	cfg := &st.cfg
	proc := cfg.Proc

	if st.bypass {
		// Direct connection: supply equals the node voltage, capped at the
		// processor's rated maximum (a clamp protects the core).
		supply := math.Min(vcap, proc.MaxVoltage())
		st.effSupply = supply
		if supply < proc.MinVoltage() {
			st.halted = true
			st.effFreq = 0
			st.loadPow = st.supplyMemo.LeakagePower(proc, supply)
			st.inputPow = st.loadPow
			return
		}
		st.halted = false
		st.effFreq = st.quantizeClock(st.supplyMemo.CappedFrequency(proc, supply, st.freqTarget))
		st.loadPow = st.supplyMemo.Power(proc, supply, st.effFreq)
		st.inputPow = st.loadPow
		return
	}

	// Regulated: the output tracks the command but cannot exceed what the
	// regulator reaches from the present input voltage (dropout limiting).
	lo, hi := cfg.Reg.OutputRange(vcap)
	supply := st.vddTarget
	if supply > hi {
		supply = hi
	}
	if supply < lo || supply <= 0 {
		// No regulable output at all: output collapses.
		st.effSupply = 0
		st.halted = true
		st.effFreq = 0
		st.loadPow = 0
		st.inputPow = 0
		return
	}
	st.effSupply = supply
	if supply < proc.MinVoltage() {
		st.halted = true
		st.effFreq = 0
		st.loadPow = st.supplyMemo.LeakagePower(proc, supply)
	} else {
		st.halted = false
		st.effFreq = st.quantizeClock(st.supplyMemo.CappedFrequency(proc, supply, st.freqTarget))
		st.loadPow = st.supplyMemo.Power(proc, supply, st.effFreq)
	}
	eta := cfg.Reg.Efficiency(vcap, supply, st.loadPow)
	if eta <= 0 {
		// Load too small or point degenerate: draw only the load power.
		st.inputPow = st.loadPow
		return
	}
	st.inputPow = st.loadPow / eta
}

// quantizeClock snaps a commanded frequency to the configured clock levels:
// the highest level at or below the command, or zero when the command is
// below every level. With no levels configured the clock is continuous.
// New sorted and deduplicated the levels, so the lookup is a binary search
// instead of the former per-step linear scan.
func (st *State) quantizeClock(f float64) float64 {
	levels := st.cfg.ClockLevels
	if len(levels) == 0 || f <= 0 {
		return f
	}
	// Invariant: levels[:lo] <= f < levels[hi:].
	lo, hi := 0, len(levels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if levels[mid] <= f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return levels[lo-1]
}

// fireComparators detects threshold crossings with hysteresis and delivers
// events to the controller.
func (st *State) fireComparators(v float64) {
	for i, c := range st.cfg.Comparators {
		half := 0.5 * c.Hysteresis
		if st.compAbove[i] {
			if v < c.Threshold-half {
				st.compAbove[i] = false
				st.traceThreshold(i, c.Threshold, false, v)
				st.cfg.Controller.OnThreshold(st, ThresholdEvent{
					Index: i, Threshold: c.Threshold, Rising: false, Time: st.time,
				})
			}
		} else if v > c.Threshold+half {
			st.compAbove[i] = true
			st.traceThreshold(i, c.Threshold, true, v)
			st.cfg.Controller.OnThreshold(st, ThresholdEvent{
				Index: i, Threshold: c.Threshold, Rising: true, Time: st.time,
			})
		}
	}
}

// traceThreshold emits a comparator-crossing event when tracing is on.
func (st *State) traceThreshold(index int, threshold float64, rising bool, v float64) {
	if !st.Tracing() {
		return
	}
	st.TraceInstant("circuit.threshold", trace.Args{
		"comparator": float64(index), "threshold_v": threshold,
		"rising": rising, "vcap_v": v,
	})
}
