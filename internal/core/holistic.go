// Package core implements the paper's primary contribution: holistic
// co-optimization of the photovoltaic harvester, the on-chip voltage
// regulator and the microprocessor in a fully integrated battery-less SoC.
//
// It provides:
//
//   - the Sec. IV optimal-voltage analysis: maximise clock speed under the
//     harvester's maximum-power-point constraint with the regulator's
//     voltage-dependent efficiency folded in (Eq. 1-4), including the
//     unregulated (direct-connection) baseline and the low-light regulator
//     bypass decision;
//   - the Sec. V holistic minimum-energy point (Eq. 5), which shifts above
//     the conventional MEP once conversion efficiency is considered;
//   - the Manager runtime (manager.go) that combines time-based MPP
//     tracking and sprint/bypass scheduling on the transient simulator.
//
// All quantities use SI units.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/search"
)

// Analysis search parameters. Efficiency landscapes of multi-ratio
// converters are only piecewise-smooth, so optima are located with a dense
// grid scan followed by golden-section refinement between the neighbouring
// grid points.
const (
	scanPoints            = 400
	voltageSolveTolerance = 1e-6
	maxRefineIterations   = 120
)

// Errors returned by this package.
var (
	// ErrNoFeasiblePoint indicates that no operating voltage satisfies the
	// power constraint.
	ErrNoFeasiblePoint = errors.New("core: no feasible operating point")
)

// System bundles the co-optimized components.
type System struct {
	Cell *pv.Cell
	Proc *cpu.Processor
}

// NewSystem returns a System over the given harvester and processor.
func NewSystem(cell *pv.Cell, proc *cpu.Processor) *System {
	return &System{Cell: cell, Proc: proc}
}

// Point is a fully resolved system operating point.
type Point struct {
	SolarVoltage   float64 // harvester terminal voltage (V)
	SolarPower     float64 // power extracted from the cell (W)
	Supply         float64 // processor supply voltage (V)
	Frequency      float64 // clock frequency (Hz)
	LoadPower      float64 // power consumed by the processor (W)
	Efficiency     float64 // conversion efficiency source->load (1 for bypass)
	RegulatorName  string  // "Bypass" for direct connection
	EnergyPerCycle float64 // LoadPower/Frequency (J), +Inf when halted
}

// UnregulatedPoint solves the direct-connection operating point: the node
// settles where the processor's full-speed load line crosses the cell's
// I-V curve (Fig. 6a, "Maximum Performance (unregulated)"). The processor's
// rated maximum voltage clamps the node via a protection shunt.
func (s *System) UnregulatedPoint(irradiance float64) (Point, error) {
	load := func(v float64) float64 {
		if v > s.Proc.MaxVoltage() {
			v = s.Proc.MaxVoltage()
		}
		return s.Proc.MaxCurrent(v)
	}
	v, err := s.Cell.OperatingPoint(irradiance, load)
	if err != nil {
		return Point{}, fmt.Errorf("unregulated point: %w", err)
	}
	supply := math.Min(v, s.Proc.MaxVoltage())
	f := s.Proc.MaxFrequency(supply)
	p := s.Proc.Power(supply, f)
	pt := Point{
		SolarVoltage:  v,
		SolarPower:    s.Cell.Power(v, irradiance),
		Supply:        supply,
		Frequency:     f,
		LoadPower:     p,
		Efficiency:    1,
		RegulatorName: "Bypass",
	}
	pt.EnergyPerCycle = energyPerCycle(p, f)
	if f <= 0 {
		return pt, fmt.Errorf("%w: node settles at %.3f V, below functional minimum", ErrNoFeasiblePoint, supply)
	}
	return pt, nil
}

// RegulatedBestPoint solves the Sec. IV optimisation (Eq. 1-4): the
// harvester is held at its MPP by the regulator's tracking loop, and the
// processor supply is chosen to maximise clock frequency subject to the
// delivered power budget eta(Vdd) * Pmpp and the alpha-power frequency
// ceiling.
func (s *System) RegulatedBestPoint(r reg.Regulator, irradiance float64) (Point, error) {
	vmpp, pmpp := s.Cell.MPP(irradiance)
	if pmpp <= 0 {
		return Point{}, fmt.Errorf("%w: harvester yields no power at irradiance %.3g", ErrNoFeasiblePoint, irradiance)
	}
	lo, hi := r.OutputRange(vmpp)
	lo = math.Max(lo, s.Proc.MinVoltage())
	hi = math.Min(hi, s.Proc.MaxVoltage())
	if lo > hi {
		return Point{}, fmt.Errorf("%w: regulator output range empty from %.3f V input", ErrNoFeasiblePoint, vmpp)
	}
	freqAt := func(v float64) float64 {
		budget, err := reg.OutputPower(r, vmpp, v, pmpp)
		if err != nil {
			return 0
		}
		return s.Proc.FrequencyForPower(v, budget)
	}
	v, f := maximizeScan(lo, hi, freqAt)
	if f <= 0 {
		return Point{}, fmt.Errorf("%w: no supply voltage in [%.3f, %.3f] V runs under the MPP budget", ErrNoFeasiblePoint, lo, hi)
	}
	p := s.Proc.Power(v, f)
	eta := r.Efficiency(vmpp, v, p)
	pt := Point{
		SolarVoltage:   vmpp,
		SolarPower:     math.Min(pmpp, safeDiv(p, eta)),
		Supply:         v,
		Frequency:      f,
		LoadPower:      p,
		Efficiency:     eta,
		RegulatorName:  r.Name(),
		EnergyPerCycle: energyPerCycle(p, f),
	}
	return pt, nil
}

// Comparison quantifies the benefit of regulated MPP operation over the
// unregulated baseline (the paper's "31% more power, 18% speedup").
type Comparison struct {
	Unregulated Point
	Regulated   Point

	// ExtractionGain is SolarPower(reg)/SolarPower(unreg) - 1: how much
	// more power the MPP-held cell produces.
	ExtractionGain float64
	// DeliveryGain is LoadPower(reg)/LoadPower(unreg) - 1: how much more
	// power reaches the processor after conversion losses.
	DeliveryGain float64
	// Speedup is Frequency(reg)/Frequency(unreg) - 1.
	Speedup float64
}

// Compare evaluates regulated-vs-unregulated operation for one regulator at
// one irradiance level (Fig. 6b).
func (s *System) Compare(r reg.Regulator, irradiance float64) (Comparison, error) {
	unregPt, err := s.UnregulatedPoint(irradiance)
	if err != nil {
		return Comparison{}, err
	}
	regPt, err := s.RegulatedBestPoint(r, irradiance)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Unregulated:    unregPt,
		Regulated:      regPt,
		ExtractionGain: safeDiv(regPt.SolarPower, unregPt.SolarPower) - 1,
		DeliveryGain:   safeDiv(regPt.LoadPower, unregPt.LoadPower) - 1,
		Speedup:        safeDiv(regPt.Frequency, unregPt.Frequency) - 1,
	}, nil
}

// BypassDecision is the Sec. IV.B low-light rule: use the regulator only
// while it delivers more processor performance than a direct connection.
type BypassDecision struct {
	Irradiance  float64
	Regulated   Point
	Unregulated Point
	Bypass      bool // true when direct connection wins
}

// DecideBypass evaluates the bypass rule at one irradiance level. A point
// that cannot run at all loses automatically; if neither runs, bypass wins
// by default (no conversion loss while waiting for energy).
func (s *System) DecideBypass(r reg.Regulator, irradiance float64) BypassDecision {
	d := BypassDecision{Irradiance: irradiance, Bypass: true}
	unregPt, errU := s.UnregulatedPoint(irradiance)
	regPt, errR := s.RegulatedBestPoint(r, irradiance)
	d.Unregulated = unregPt
	d.Regulated = regPt
	switch {
	case errR != nil:
		d.Bypass = true
	case errU != nil:
		d.Bypass = false
	default:
		d.Bypass = unregPt.Frequency >= regPt.Frequency
	}
	return d
}

// BypassCrossover finds the irradiance level below which direct connection
// beats regulated MPP operation, by bisection over (loIrr, hiIrr). It
// returns hiIrr if the regulator never wins and loIrr if it always wins.
func (s *System) BypassCrossover(r reg.Regulator, loIrr, hiIrr float64) float64 {
	if s.DecideBypass(r, hiIrr).Bypass {
		// Direct connection wins even at the top of the range.
		return hiIrr
	}
	if !s.DecideBypass(r, loIrr).Bypass {
		// The regulator wins even at the bottom.
		return loIrr
	}
	lo, hi := search.Bisect(loIrr, hiIrr, 1e-5, maxRefineIterations,
		func(irr float64) bool { return s.DecideBypass(r, irr).Bypass })
	return 0.5 * (lo + hi)
}

// MEPResult reports a minimum-energy-point analysis (Sec. V, Fig. 7b).
type MEPResult struct {
	ConventionalVoltage float64 // argmin of the processor-only energy (V)
	ConventionalEnergy  float64 // processor-only energy at that point (J/cycle)
	HolisticVoltage     float64 // argmin including regulator efficiency (V)
	HolisticEnergy      float64 // source-side energy at the holistic MEP (J/cycle)

	// ConventionalSourceEnergy is the source-side energy per cycle when the
	// system naively operates at the conventional MEP voltage through the
	// regulator. Savings = ConventionalSourceEnergy/HolisticEnergy - 1.
	ConventionalSourceEnergy float64
	Savings                  float64
	VoltageShift             float64 // HolisticVoltage - ConventionalVoltage (V)
}

// HolisticMEP computes the minimum-energy point with the regulator's
// efficiency folded into the objective (Eq. 5): minimise over supply
// voltage the source-side energy per cycle
//
//	E(v) = [Edyn(v) + Eleak(v)] / eta(vin, v, P(v)),
//
// where the conversion point is evaluated at full-speed load. vin is the
// regulator's input voltage (typically the harvester's MPP voltage).
func (s *System) HolisticMEP(r reg.Regulator, vin float64) (MEPResult, error) {
	var res MEPResult
	res.ConventionalVoltage, res.ConventionalEnergy = s.Proc.ConventionalMEP()

	lo, hi := r.OutputRange(vin)
	lo = math.Max(lo, s.Proc.MinVoltage())
	hi = math.Min(hi, s.Proc.MaxVoltage())
	if lo > hi {
		return res, fmt.Errorf("%w: regulator output range empty from %.3f V input", ErrNoFeasiblePoint, vin)
	}
	negHolistic := func(v float64) float64 { return -s.SourceEnergyPerCycle(r, vin, v) }
	v, negE := maximizeScan(lo, hi, negHolistic)
	if math.IsInf(negE, -1) {
		return res, fmt.Errorf("%w: regulator cannot deliver any point in [%.3f, %.3f] V", ErrNoFeasiblePoint, lo, hi)
	}
	res.HolisticVoltage = v
	res.HolisticEnergy = -negE
	res.ConventionalSourceEnergy = s.SourceEnergyPerCycle(r, vin, clamp(res.ConventionalVoltage, lo, hi))
	res.Savings = safeDiv(res.ConventionalSourceEnergy, res.HolisticEnergy) - 1
	res.VoltageShift = res.HolisticVoltage - res.ConventionalVoltage
	return res, nil
}

// SourceEnergyPerCycle returns the source-side energy per cycle at supply
// voltage v through regulator r fed from vin, the quantity plotted in
// Fig. 7b. It is +Inf where the point is unreachable.
func (s *System) SourceEnergyPerCycle(r reg.Regulator, vin, v float64) float64 {
	e := s.Proc.EnergyPerCycle(v)
	eta := r.Efficiency(vin, v, s.Proc.MaxPower(v))
	if eta <= 0 {
		return math.Inf(1)
	}
	return e / eta
}

// maximizeScan locates the maximiser of f over [lo, hi] with a dense grid
// scan plus golden-section refinement between the neighbours of the best
// grid point. It tolerates piecewise-smooth objectives such as multi-ratio
// converter efficiency landscapes.
func maximizeScan(lo, hi float64, f func(float64) float64) (x, fx float64) {
	if hi <= lo {
		return lo, f(lo)
	}
	bestX, bestF := lo, f(lo)
	step := (hi - lo) / scanPoints
	for k := 1; k <= scanPoints; k++ {
		v := lo + float64(k)*step
		if fv := f(v); fv > bestF {
			bestX, bestF = v, fv
		}
	}
	a, b := search.GoldenMax(math.Max(lo, bestX-step), math.Min(hi, bestX+step),
		voltageSolveTolerance, maxRefineIterations, f)
	x = 0.5 * (a + b)
	fx = f(x)
	if fx < bestF {
		return bestX, bestF
	}
	return x, fx
}

func energyPerCycle(power, freq float64) float64 {
	if freq <= 0 {
		return math.Inf(1)
	}
	return power / freq
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
