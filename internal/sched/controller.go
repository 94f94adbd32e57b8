package sched

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/trace"
)

// DeadlineController drives the transient simulator through a deadline-
// constrained job, optionally with sprinting (Sec. VI.B) and regulator
// bypass (Sec. VII). With Sprint == 0 and AllowBypass == false it is the
// conventional constant-speed baseline of Fig. 9b/11b.
//
// The controller tracks the job's remaining cycles: the commanded rate is
// the sprint profile or, when the run has fallen behind (e.g. after a
// brownout stall), the catch-up rate (remaining cycles over remaining
// time), whichever is higher.
type DeadlineController struct {
	// Cycles is the job length N (clock cycles). Required.
	Cycles float64
	// Deadline is the completion window T (s). Required.
	Deadline float64
	// Sprint is the sprint factor s in [0, 1): the first half of the window
	// runs at (1-s)*f0 and the second at (1+s)*f0. Zero disables sprinting.
	Sprint float64
	// AllowBypass enables switching to direct connection when the regulator
	// can no longer sustain the required supply voltage.
	AllowBypass bool
	// SupplyMargin is extra headroom (V) commanded above the minimum supply
	// for the target frequency. Zero selects a default of 0.01 V.
	SupplyMargin float64
	// StopOnDropout declares the job failed (ending the simulation) when
	// the regulator can no longer sustain the required supply and bypass is
	// not allowed — the conventional baseline of Fig. 11b, whose operation
	// ends when the output cannot be held above the job's voltage.
	StopOnDropout bool

	// BypassedAt records when the controller switched to bypass (s);
	// negative if it never did.
	BypassedAt float64
	// DroppedOutAt records when the regulator first failed to sustain the
	// required supply (s); negative if it never happened.
	DroppedOutAt float64

	sprinting    bool // the profile is in its fast second half
	missReported bool // the deadline-miss event already fired

	// vsolve memoizes the per-step supply-voltage solve; the commanded
	// rate drifts slowly, so it nearly always lands in the interval of
	// frequencies that take the last solve's bisection path (results are
	// bit-identical either way).
	vsolve cpu.FreqSolverState
}

var _ circuit.Controller = (*DeadlineController)(nil)

// Init implements circuit.Controller.
func (dc *DeadlineController) Init(s *circuit.State) {
	if dc.SupplyMargin == 0 {
		dc.SupplyMargin = 0.01
	}
	dc.BypassedAt = -1
	dc.DroppedOutAt = -1
	dc.sprinting = false
	dc.missReported = false
	s.SetBypass(false)
	s.SetProfilePhase(prof.BinCPUActive)
	if s.Tracing() {
		mode := "steady"
		if dc.Sprint > 0 {
			mode = "slow"
		}
		s.TraceInstant("sched.mode", trace.Args{
			"mode": mode, "rate_hz": dc.profileRate(0),
			"cycles": dc.Cycles, "deadline_s": dc.Deadline, "sprint": dc.Sprint,
		})
	}
	dc.command(s)
}

// OnStep implements circuit.Controller.
func (dc *DeadlineController) OnStep(s *circuit.State) {
	dc.command(s)
}

// OnThreshold implements circuit.Controller.
func (dc *DeadlineController) OnThreshold(*circuit.State, circuit.ThresholdEvent) {}

// QuiescentUntil implements circuit.Quiescent for event-horizon
// fast-forward. It claims quiescence only for a node collapsed at
// exactly 0 V, where command() is provably a latch-free no-op every
// step: the operating point ignores the commanded targets, re-issued
// commands are idempotent (vddTarget is already hi(0) = 0, and the
// varying frequency command is dead state that the first resumed OnStep
// recomputes from scratch), and the three time-driven latches — sprint
// handoff, deadline miss, dropout — are either already taken or bound
// the returned horizon so their firing step executes verbatim.
func (dc *DeadlineController) QuiescentUntil(s *circuit.State) float64 {
	now := s.Time()
	if !s.Halted() || math.Float64bits(s.CapVoltage()) != 0 {
		return now
	}
	if !s.Bypassed() {
		// Regulated: every skipped command() would walk the dropout
		// branch. That is only inert when the dropout is already
		// latched, the run cannot be stopped there, the bypass flip
		// cannot trigger (vcap > hi must be false, i.e. hi(0) == 0),
		// and the recomputed vdd = solve(f>0) + margin stays above hi.
		if dc.DroppedOutAt < 0 || dc.StopOnDropout {
			return now
		}
		if _, hi := s.Regulator().OutputRange(s.CapVoltage()); hi != 0 {
			return now
		}
		if !(dc.SupplyMargin > 0) || !(dc.Cycles > 0) ||
			!(dc.Deadline > 0) || dc.Sprint >= 1 {
			return now
		}
	}
	horizon := math.Inf(1)
	if dc.Sprint > 0 && !dc.sprinting {
		horizon = dc.Deadline / 2 // the sprint handoff must step verbatim
	}
	if !dc.missReported && dc.Deadline < horizon {
		horizon = dc.Deadline // so must the deadline-miss event
	}
	return horizon
}

// profileRate returns the scheduled clock rate (Hz) at time t.
func (dc *DeadlineController) profileRate(t float64) float64 {
	f0 := dc.Cycles / dc.Deadline
	if dc.Sprint <= 0 {
		return f0
	}
	if t < dc.Deadline/2 {
		return (1 - dc.Sprint) * f0
	}
	return (1 + dc.Sprint) * f0
}

// scheduledCycles returns how many cycles the profile plans to have
// finished by time t.
func (dc *DeadlineController) scheduledCycles(t float64) float64 {
	f0 := dc.Cycles / dc.Deadline
	half := dc.Deadline / 2
	switch {
	case t <= 0:
		return 0
	case t <= half:
		return (1 - dc.Sprint) * f0 * t
	case t <= dc.Deadline:
		return (1-dc.Sprint)*f0*half + (1+dc.Sprint)*f0*(t-half)
	default:
		return dc.Cycles
	}
}

// command resolves and applies the DVFS point for the current instant.
func (dc *DeadlineController) command(s *circuit.State) {
	t := s.Time()
	proc := s.Processor()

	// Sprint handoff: the slow first half of the window ends at T/2
	// (Sec. VI.B slow-then-sprint schedule).
	if dc.Sprint > 0 && !dc.sprinting && t >= dc.Deadline/2 {
		dc.sprinting = true
		s.SetProfilePhase(prof.BinCPUSprint)
		if s.Tracing() {
			s.TraceInstant("sched.mode", trace.Args{
				"mode": "sprint", "rate_hz": dc.profileRate(t),
				"slack_cycles": s.CyclesDone() - dc.scheduledCycles(t),
			})
		}
	}

	// Target rate: the sprint profile, plus catch-up when execution has
	// fallen behind the profile's own schedule (e.g. after a brownout
	// stall). The catch-up spreads the deficit over the remaining window so
	// a transient stall does not defeat the slow first half by design.
	f := dc.profileRate(t)
	remaining := dc.Cycles - s.CyclesDone()
	left := dc.Deadline - t
	if left > 0 {
		if deficit := dc.scheduledCycles(t) - s.CyclesDone(); deficit > 0 {
			f += deficit / left
		}
	} else if remaining > 0 {
		f = math.Inf(1) // past the deadline: flat out
		if !dc.missReported {
			dc.missReported = true
			if s.Tracing() {
				s.TraceInstant("sched.deadline.miss", trace.Args{
					"remaining_cycles": remaining, "deadline_s": dc.Deadline,
				})
			}
		}
	}

	if s.Bypassed() {
		// Direct connection: the supply tracks the node; the simulator
		// clamps the clock to fmax(node).
		s.SetFrequency(f)
		return
	}

	vdd, err := proc.VoltageForFrequencyWarm(f, &dc.vsolve)
	if err != nil {
		// Beyond the core's ceiling even at maximum voltage: saturate.
		vdd = proc.MaxVoltage()
		f = proc.MaxFrequency(vdd)
	}
	vdd += dc.SupplyMargin

	_, hi := s.Regulator().OutputRange(s.CapVoltage())
	if vdd > hi {
		// Regulator dropout: it cannot sustain the required supply.
		if dc.DroppedOutAt < 0 {
			dc.DroppedOutAt = t
			if s.Tracing() {
				s.TraceInstant("sched.dropout", trace.Args{
					"required_v": vdd, "reachable_v": hi, "vcap_v": s.CapVoltage(),
				})
			}
		}
		if dc.AllowBypass && s.CapVoltage() > hi {
			// Direct connection delivers the full node voltage instead.
			s.SetBypass(true)
			if dc.BypassedAt < 0 {
				dc.BypassedAt = t
				if s.Tracing() {
					s.TraceInstant("sched.bypass", trace.Args{
						"mode": "bypass", "vcap_v": s.CapVoltage(), "required_v": vdd,
						"slack_cycles": s.CyclesDone() - dc.scheduledCycles(t),
					})
				}
			}
			s.SetFrequency(f)
			return
		}
		if dc.StopOnDropout {
			s.Stop("regulator dropout")
			return
		}
		vdd = hi // best the regulator can do; the core slows or halts
	}
	s.SetSupply(vdd)
	s.SetFrequency(f)
}
