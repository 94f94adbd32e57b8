package circuit

// The resumable stepper: the fixed-Δt kernel behind Run, split into
// Init / StepTo / Outcome so a caller can interleave many simulations on a
// shared clock (internal/fleet) or inspect a run mid-flight (Progress).
// StepTo executes exactly the statements the former monolithic Run loop
// executed, in the same order, so a run advanced in arbitrary StepTo
// increments is bit-identical to a single Run — the property the fleet
// engine's determinism contract and the golden/j-parity tests rest on.

import (
	"math"

	"repro/internal/trace"
)

// stepCountEps is the relative slack stepCount allows when deciding that a
// MaxTime/Step quotient is "really" an integer. One float64 division is
// wrong by at most half an ulp (~1.1e-16 relative), so 1e-12 is four
// orders of magnitude of headroom while staying far below any fractional
// step a caller could configure on purpose.
const stepCountEps = 1e-12

// stepCount converts a (maxTime, step) pair into the integer step budget.
// The naive int(math.Ceil(maxTime/step)) silently overshoots whenever the
// division lands a few ulps above an exact multiple — 10/0.001 evaluates
// to 10000.000000000002, so Ceil ordered one extra step, skewing the
// EnergyAux/EnergyLost accumulators of every exact-multiple horizon.
// Quotients within stepCountEps of an integer snap to it; everything else
// still rounds up so a partial trailing step is simulated in full.
func stepCount(maxTime, step float64) int {
	x := maxTime / step
	if r := math.Round(x); r > 0 && math.Abs(x-r) <= r*stepCountEps {
		return int(r)
	}
	return int(math.Ceil(x))
}

// Init prepares the stepper: it sizes the step budget and waveform buffer,
// latches the comparator states from the starting voltage, and runs the
// controller's Init hook. It is idempotent — StepTo calls it implicitly —
// and must precede the first step.
func (s *Simulator) Init() error {
	if s.initialized {
		return nil
	}
	s.initialized = true
	st := &s.state
	cfg := &st.cfg

	s.steps = stepCount(cfg.MaxTime, cfg.Step)
	if cfg.TraceEvery > 0 {
		// Pre-size the waveform so the step loop never grows it.
		s.waveform = &Trace{Samples: make([]Sample, 0, s.steps/cfg.TraceEvery+1)}
	}

	// Initialise comparator states from the starting voltage.
	v0 := cfg.Cap.Voltage()
	for i, c := range cfg.Comparators {
		st.compAbove[i] = v0 > c.Threshold
	}

	if st.Tracing() {
		st.TraceBegin("circuit.run", trace.Args{
			"step_s": cfg.Step, "max_time_s": cfg.MaxTime, "vcap0_v": v0,
		})
	}
	cfg.Controller.Init(st)

	s.prevBypass = st.bypass
	s.prevHalted = false

	// Event-horizon fast-forward qualifies only when the input's horizon
	// is knowable (IrradianceSource) and the controller can vouch for its
	// own inertness (Quiescent) — see tryFastForward (ffwd.go) for the
	// fixed-point proof obligations and the ledger credit that keeps a
	// profiled run on the fast path.
	s.ffwd = !cfg.NoFastForward && cfg.IrradianceSource != nil
	if s.ffwd {
		if q, ok := cfg.Controller.(Quiescent); ok {
			s.quiescent = q
		} else {
			s.ffwd = false
		}
	}
	return nil
}

// StepTo advances the simulation through every step that starts before
// time t (capped at the horizon), stopping early on job completion, a
// StopOnBrownout halt, or a controller stop — exactly as Run would. The
// step boundary is resolved with the same integer-robust arithmetic as the
// total budget, so epoch boundaries that are exact multiples of Step agree
// with Run's step indices to the last step. It reports whether the
// simulation is finished; calling it again after that is a no-op.
func (s *Simulator) StepTo(t float64) (bool, error) {
	if err := s.Init(); err != nil {
		return s.finished, err
	}
	if s.finished {
		return true, nil
	}
	cfg := &s.state.cfg
	target := s.steps
	if t < cfg.MaxTime {
		if n := stepCount(t, cfg.Step); n < target {
			target = n
		}
	}
	return s.runTo(target), nil
}

// StepsFor converts a time bound into the integer step target StepTo
// would derive from it, using the same integer-robust arithmetic.
// Callers stepping many lanes to shared boundaries (the fleet epoch
// scheduler) memoize this once per boundary and use StepToCount instead
// of paying the conversion per lane per epoch.
func StepsFor(t, step float64) int { return stepCount(t, step) }

// StepToCount advances the simulation through every step with index
// below n (capped at the step budget), with exactly StepTo's semantics:
// StepToCount(StepsFor(t, cfg.Step)) for t <= MaxTime is equivalent to
// StepTo(t).
func (s *Simulator) StepToCount(n int) (bool, error) {
	if err := s.Init(); err != nil {
		return s.finished, err
	}
	if s.finished {
		return true, nil
	}
	target := n
	if target > s.steps {
		target = s.steps
	}
	return s.runTo(target), nil
}

// runTo is the shared StepTo/StepToCount loop: verbatim steps, with a
// fast-forward attempt before each one when the run qualifies. The
// attempt either proves the span ahead inert and jumps (ffwd.go) or
// moves nothing, so the loop always progresses through stepOnce.
func (s *Simulator) runTo(target int) bool {
	for s.next < target && !s.finished {
		if s.ffwd {
			s.tryFastForward(target)
			if s.next >= target {
				break
			}
		}
		s.stepOnce()
	}
	if s.next >= s.steps {
		s.finished = true
	}
	return s.finished
}

// Done reports whether the simulation has finished (horizon reached, job
// complete, or stopped) without advancing it.
func (s *Simulator) Done() bool { return s.finished }

// Outcome finalises and returns the run summary. The first call stamps the
// duration/energy totals and closes the run's trace span; later calls
// return the same value. Stepping past a finalised outcome is prevented by
// the finished flag, which finalisation forces.
func (s *Simulator) Outcome() *Outcome {
	st := &s.state
	if !s.finalized {
		s.finalized = true
		s.finished = true
		st.outcome.Duration = st.time + st.cfg.Step
		st.outcome.CyclesDone = st.cyclesDone
		st.outcome.FinalCapVoltage = st.cfg.Cap.Voltage()
		st.outcome.Trace = s.waveform
		if st.Tracing() {
			st.TraceEnd("circuit.run", trace.Args{
				"duration_s": st.outcome.Duration, "cycles_done": st.cyclesDone,
				"harvested_j": st.outcome.EnergyHarvested, "final_vcap_v": st.outcome.FinalCapVoltage,
			})
		}
	}
	return &st.outcome
}

// Progress is a read-only mid-run snapshot, for callers interleaving many
// simulations (fleet snapshots) or asserting invariants between steps
// (property tests). All fields reflect the state after the last executed
// step.
type Progress struct {
	Time            float64 // start time of the last executed step (s)
	Steps           int     // steps executed or skipped so far
	StepsSkipped    int     // steps fast-forwarded over as provably inert
	CapVoltage      float64 // storage-node voltage (V)
	CyclesDone      float64 // clock cycles executed
	EnergyHarvested float64 // energy drawn from the cell so far (J)
	EnergyAux       float64 // auxiliary-load energy so far (J)
	Halted          bool    // processor currently halted
	Completed       bool    // cycle budget reached
	BrownedOut      bool    // a halt has occurred
	Done            bool    // no further steps will execute
}

// Progress returns the current mid-run snapshot.
func (s *Simulator) Progress() Progress {
	st := &s.state
	return Progress{
		Time:            st.time,
		Steps:           s.next,
		StepsSkipped:    s.stepsSkipped,
		CapVoltage:      st.cfg.Cap.Voltage(),
		CyclesDone:      st.cyclesDone,
		EnergyHarvested: st.outcome.EnergyHarvested,
		EnergyAux:       st.outcome.EnergyAux,
		Halted:          st.halted,
		Completed:       st.outcome.Completed,
		BrownedOut:      st.outcome.BrownedOut,
		Done:            s.finished,
	}
}

// stepOnce executes one integration step — the body of the former Run
// loop, verbatim. Any edit here changes the simulated bit pattern; the
// golden and parity tests will say so.
func (s *Simulator) stepOnce() {
	st := &s.state
	cfg := &st.cfg
	k := s.next
	s.next++

	st.time = float64(k) * cfg.Step
	var irr float64
	if src := cfg.IrradianceSource; src != nil {
		irr = src.At(st.time)
	} else {
		irr = cfg.Irradiance(st.time)
	}

	vcap := cfg.Cap.Voltage()
	st.resolveOperatingPoint(vcap)

	// Trace mode transitions.
	if st.bypass != s.prevBypass {
		if st.Tracing() {
			kind := "circuit.bypass-on"
			if !st.bypass {
				kind = "circuit.bypass-off"
			}
			st.TraceInstant(kind, trace.Args{
				"vcap_v": vcap, "supply_v": st.effSupply,
			})
		}
		s.prevBypass = st.bypass
	}
	if st.halted != s.prevHalted {
		if st.Tracing() {
			kind := "circuit.halt"
			if !st.halted {
				kind = "circuit.resume"
			}
			st.TraceInstant(kind, trace.Args{
				"vcap_v": vcap, "cycles_done": st.cyclesDone,
			})
		}
		s.prevHalted = st.halted
	}

	// Harvested current at the present node voltage; negative values
	// (node above Voc) discharge into the cell's diode. The solve is
	// warm-started from the previous step's operating point.
	iSolar := cfg.Cell.CurrentWarm(vcap, irr, &st.pvSolver)
	var aux float64
	if cfg.AuxLoad != nil {
		if aux = cfg.AuxLoad(st.time); aux < 0 {
			aux = 0
		}
		if vcap <= 0 {
			aux = 0 // a collapsed node powers nothing
		}
	}
	var iLoad float64
	if vcap > 0 {
		iLoad = (st.inputPow + aux) / vcap
	}
	cfg.Cap.ApplyCurrent(iSolar-iLoad, cfg.Step)
	st.outcome.EnergyAux += aux * cfg.Step

	// Energy and progress accounting.
	st.solarPow = vcap * iSolar
	if st.solarPow > 0 {
		st.outcome.EnergyHarvested += st.solarPow * cfg.Step
	}
	st.outcome.EnergyDelivered += st.loadPow * cfg.Step
	if loss := st.inputPow - st.loadPow; loss > 0 {
		st.outcome.EnergyLost += loss * cfg.Step
	}
	st.cyclesDone += st.effFreq * cfg.Step

	// Energy-flow profiling observes the step just accounted; off (nil)
	// costs one comparison and the physics above never sees it.
	if led := cfg.Ledger; led != nil {
		s.profileStep(led, aux)
	}

	if st.halted && !st.outcome.BrownedOut {
		st.outcome.BrownedOut = true
		st.outcome.BrownoutTime = st.time
	}

	if s.waveform != nil && k%cfg.TraceEvery == 0 {
		s.waveform.Samples = append(s.waveform.Samples, Sample{
			Time:       st.time,
			CapVoltage: cfg.Cap.Voltage(),
			Supply:     st.effSupply,
			Frequency:  st.effFreq,
			SolarPower: st.solarPow,
			LoadPower:  st.loadPow,
			Bypass:     st.bypass,
			Halted:     st.halted,
		})
	}

	cfg.Controller.OnStep(st)
	st.fireComparators(cfg.Cap.Voltage())

	if cfg.JobCycles > 0 && st.cyclesDone >= cfg.JobCycles {
		st.outcome.Completed = true
		st.outcome.CompletionTime = st.time + cfg.Step
		if st.Tracing() {
			st.TraceInstant("circuit.complete", trace.Args{
				"cycles_done": st.cyclesDone, "t_s": st.outcome.CompletionTime,
			})
		}
		s.finished = true
		return
	}
	if cfg.StopOnBrownout && st.outcome.BrownedOut {
		s.finished = true
		return
	}
	if st.stopRequested {
		st.outcome.Stopped = true
		st.outcome.StopReason = st.stopReason
		st.outcome.StoppedAt = st.time
		if st.Tracing() {
			st.TraceInstant("circuit.stop", trace.Args{"reason": st.stopReason})
		}
		s.finished = true
	}
}
