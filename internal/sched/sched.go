// Package sched implements the paper's timing-constrained scheduling
// analyses and run-time policies (Sec. VI.B, Fig. 9):
//
//   - the analytic energy model of deadline-constrained operation
//     (Eq. 8-11): the source energy required to finish N cycles within T
//     seconds, and the available energy from solar input plus capacitor
//     discharge, whose intersection gives the feasible completion time;
//   - the "sprinting" plan (Eq. 12-13): run slower than nominal during the
//     first half of the deadline window and faster during the second, so
//     the storage node stays near the harvester's high-voltage/high-power
//     region longer and extra solar energy is absorbed;
//   - run-time controllers for the transient simulator: constant-speed,
//     sprinting, and their combination with regulator bypass, which extends
//     operation after the regulator drops out.
//
// All quantities use SI units.
package sched

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/search"
)

// Solver parameters.
const (
	timeSolveTolerance  = 1e-7
	maxSolverIterations = 200
)

// Errors returned by this package.
var (
	// ErrDeadlineTooTight indicates a deadline requiring a clock frequency
	// beyond the processor's maximum.
	ErrDeadlineTooTight = errors.New("sched: deadline requires frequency beyond maximum")

	// ErrInfeasible indicates that no completion time in the searched range
	// balances required and available energy.
	ErrInfeasible = errors.New("sched: no feasible completion time in range")

	// ErrBadSprintFactor indicates a sprint factor outside [0, 1).
	ErrBadSprintFactor = errors.New("sched: sprint factor must be in [0, 1)")
)

// DeadlinePlan is the resolved constant-speed operating plan for a job.
type DeadlinePlan struct {
	Cycles       float64 // job length N (clock cycles)
	Deadline     float64 // completion window T (s)
	Frequency    float64 // required constant clock f = N/T (Hz)
	Supply       float64 // minimum supply voltage sustaining f (V)
	LoadEnergy   float64 // processor-side energy for the job (J)
	SourceEnergy float64 // source-side energy through the regulator (J)
}

// PlanDeadline resolves Eq. 8-10 for a job of N cycles due in T seconds
// through a converter of efficiency eta: the required frequency is N/T, the
// supply is the lowest voltage sustaining it, and the source energy is
//
//	E = N * (Ceff*V^2 + Pleak(V)/f) / eta.
func PlanDeadline(proc *cpu.Processor, cycles, deadline, eta float64) (DeadlinePlan, error) {
	if cycles <= 0 || deadline <= 0 {
		return DeadlinePlan{}, fmt.Errorf("%w: cycles=%g deadline=%g", ErrDeadlineTooTight, cycles, deadline)
	}
	if eta <= 0 || eta > 1 {
		return DeadlinePlan{}, fmt.Errorf("sched: efficiency %g out of (0, 1]", eta)
	}
	f := cycles / deadline
	v, err := proc.VoltageForFrequency(f)
	if err != nil {
		return DeadlinePlan{}, fmt.Errorf("%w: need %.3g Hz", ErrDeadlineTooTight, f)
	}
	loadEnergy := cycles*proc.DynamicEnergyPerCycle(v) + proc.LeakagePower(v)*deadline
	return DeadlinePlan{
		Cycles:       cycles,
		Deadline:     deadline,
		Frequency:    f,
		Supply:       v,
		LoadEnergy:   loadEnergy,
		SourceEnergy: loadEnergy / eta,
	}, nil
}

// EnergySupply describes the energy available to a job over a window
// (Eq. 11): steady harvesting at the MPP plus a one-time capacitor
// discharge budget.
type EnergySupply struct {
	HarvestPower  float64 // steady input power, typically the MPP power (W)
	CapacitorDrop float64 // usable capacitor energy 1/2*C*(Vstart^2-Vend^2) (J)
	ConverterEta  float64 // efficiency applied to both contributions (0..1]
}

// Available returns the source-side energy (J) the supply can deliver to
// the load over a window of T seconds.
func (es EnergySupply) Available(deadline float64) float64 {
	raw := es.HarvestPower*deadline + es.CapacitorDrop
	if raw < 0 {
		raw = 0
	}
	return raw * es.ConverterEta
}

// CompletionPoint is one sample of the Fig. 9a energy-vs-completion-time
// trade-off.
type CompletionPoint struct {
	Deadline  float64 // candidate completion time (s)
	Required  float64 // load-side energy required to finish by then (J)
	Available float64 // load-side energy available by then (J)
	Feasible  bool    // Available >= Required
}

// CompletionCurve samples the required and available energies over n
// deadlines evenly spaced in [loT, hiT] (Fig. 9a). Deadlines too tight for
// the processor carry Required = +Inf.
func CompletionCurve(proc *cpu.Processor, supply EnergySupply, cycles, loT, hiT float64, n int) []CompletionPoint {
	if n < 2 {
		return nil
	}
	pts := make([]CompletionPoint, n)
	for k := 0; k < n; k++ {
		t := loT + (hiT-loT)*float64(k)/float64(n-1)
		required := math.Inf(1)
		if plan, err := PlanDeadline(proc, cycles, t, 1); err == nil {
			required = plan.LoadEnergy
		}
		available := supply.Available(t)
		pts[k] = CompletionPoint{
			Deadline:  t,
			Required:  required,
			Available: available,
			Feasible:  available >= required,
		}
	}
	return pts
}

// FastestCompletion finds the smallest completion time in [loT, hiT] at
// which the available energy covers the requirement — the intersection of
// the two curves in Fig. 9a. Required energy decreases and available
// energy increases with the deadline, so bisection applies.
func FastestCompletion(proc *cpu.Processor, supply EnergySupply, cycles, loT, hiT float64) (float64, error) {
	feasible := func(t float64) bool {
		plan, err := PlanDeadline(proc, cycles, t, 1)
		if err != nil {
			return false
		}
		return supply.Available(t) >= plan.LoadEnergy
	}
	if !feasible(hiT) {
		return 0, fmt.Errorf("%w: even T=%.3g s infeasible", ErrInfeasible, hiT)
	}
	if feasible(loT) {
		return loT, nil
	}
	_, hi := search.Bisect(loT, hiT, timeSolveTolerance, maxSolverIterations,
		func(t float64) bool { return !feasible(t) })
	return hi, nil
}

// SprintPlan is the Eq. 12-13 sprinting schedule: around the nominal
// frequency f0 = N/T, run at (1-s)*f0 for the first half of the window and
// (1+s)*f0 for the second. Total cycles are unchanged:
// (1-s)*f0*T/2 + (1+s)*f0*T/2 = N.
type SprintPlan struct {
	Factor        float64 // sprint factor s in [0, 1)
	Cycles        float64 // job length N
	Deadline      float64 // window T (s)
	BaseFrequency float64 // f0 = N/T (Hz)
	SlowFrequency float64 // (1-s)*f0 (Hz)
	FastFrequency float64 // (1+s)*f0 (Hz)
	SlowSupply    float64 // minimum supply for the slow phase (V)
	FastSupply    float64 // minimum supply for the fast phase (V)
}

// NewSprintPlan builds the sprinting schedule for a job of N cycles due in
// T seconds with sprint factor s.
func NewSprintPlan(proc *cpu.Processor, cycles, deadline, factor float64) (SprintPlan, error) {
	if factor < 0 || factor >= 1 {
		return SprintPlan{}, fmt.Errorf("%w: got %g", ErrBadSprintFactor, factor)
	}
	f0 := cycles / deadline
	slowV, err := proc.VoltageForFrequency((1 - factor) * f0)
	if err != nil {
		return SprintPlan{}, fmt.Errorf("slow phase: %w", err)
	}
	fastV, err := proc.VoltageForFrequency((1 + factor) * f0)
	if err != nil {
		return SprintPlan{}, fmt.Errorf("fast phase: %w", err)
	}
	return SprintPlan{
		Factor:        factor,
		Cycles:        cycles,
		Deadline:      deadline,
		BaseFrequency: f0,
		SlowFrequency: (1 - factor) * f0,
		FastFrequency: (1 + factor) * f0,
		SlowSupply:    slowV,
		FastSupply:    fastV,
	}, nil
}

// ExtraSolarEnergy evaluates the Eq. 12 first-order estimate of the
// additional solar energy absorbed by sprinting: during the slow first
// half, the node voltage rides higher by roughly dV = s*P0*T/(2*C*Vavg),
// and the harvester's output rises by dP/dV * dV over that half window.
// cell and irradiance supply the local P-V slope at the operating voltage.
func (sp SprintPlan) ExtraSolarEnergy(cell *pv.Cell, irradiance, nodeVoltage, loadPower, capacitance float64) float64 {
	if capacitance <= 0 || nodeVoltage <= 0 {
		return 0
	}
	// Average extra node voltage during the slow half.
	dv := sp.Factor * loadPower * sp.Deadline / (4 * capacitance * nodeVoltage)
	// Local slope of the harvester's P-V curve.
	const h = 1e-3
	slope := (cell.Power(nodeVoltage+h, irradiance) - cell.Power(nodeVoltage-h, irradiance)) / (2 * h)
	extra := slope * dv * sp.Deadline / 2
	if extra < 0 {
		extra = 0
	}
	return extra
}
