// Package cpu models the power, frequency and energy behaviour of the
// paper's pattern-recognition image processor (a 65 nm test chip). It uses
// the standard compact models behind published minimum-energy-point
// analyses:
//
//   - maximum clock frequency follows the alpha-power law,
//     fmax(V) = fnom * [(V-Vth)^alpha / V] / [(Vnom-Vth)^alpha / Vnom];
//   - dynamic power is switched-capacitance based, Pdyn = Ceff * V^2 * f;
//   - leakage current grows exponentially with supply voltage (DIBL),
//     Ileak(V) = Ileak0 * exp(kDIBL * V), so Pleak = V * Ileak(V).
//
// The default processor is calibrated so that (a) at 0.55 V full speed it
// draws ~10 mW, matching the paper's switched-capacitor regulator full-load
// point, (b) a 64x64-pixel recognition job takes ~15 ms at 0.5 V as quoted
// in Sec. VII, and (c) the conventional minimum energy point falls near
// 0.4 V as in Fig. 7(b)/11(a).
//
// All quantities use SI units: volts, watts, hertz, joules, farads.
package cpu

import (
	"errors"
	"math"
)

// Solver parameters shared by the iterative routines in this package.
const (
	voltageSolveTolerance = 1e-7
	maxSolverIterations   = 200
)

// Errors returned by this package.
var (
	// ErrBelowThreshold indicates an operating voltage at or below the
	// transistor threshold where the model predicts no switching activity.
	ErrBelowThreshold = errors.New("cpu: voltage at or below threshold")

	// ErrUnreachableFrequency indicates that no voltage within the valid
	// operating range reaches the requested frequency.
	ErrUnreachableFrequency = errors.New("cpu: frequency unreachable within voltage range")

	// ErrInsufficientPower indicates a power budget too small to run the
	// processor at any valid operating point.
	ErrInsufficientPower = errors.New("cpu: power budget below minimum operating power")

	// ErrEmptyVoltageRange indicates a search range that does not overlap
	// the processor's functional voltage range.
	ErrEmptyVoltageRange = errors.New("cpu: empty voltage range")
)

// Processor is a compact power/performance model of a microprocessor core.
// Construct with NewProcessor; the zero value is not useful.
type Processor struct {
	nominalVoltage   float64 // Vnom (V) at which fmax = nominalFrequency
	nominalFrequency float64 // fnom (Hz)
	thresholdVoltage float64 // Vth (V)
	alpha            float64 // alpha-power-law exponent
	switchedCap      float64 // Ceff (F), effective switched capacitance per cycle
	leakageCurrent0  float64 // Ileak0 (A), leakage current extrapolated to V=0
	dibl             float64 // kDIBL (1/V), exponential voltage sensitivity of leakage
	minVoltage       float64 // lowest functional supply voltage (V)
	maxVoltage       float64 // highest rated supply voltage (V)

	// Derived at construction (NewProcessor) after the options run; the
	// parameter fields never change afterwards, so these are plain caches
	// of the exact values the methods would otherwise recompute per call.
	powNorm    float64 // Pow(Vnom-Vth, alpha)/Vnom, the alpha-law denominator
	fmaxAtVmax float64 // MaxFrequency(maxVoltage)
}

// Option configures a Processor.
type Option func(*Processor)

// WithNominal sets the nominal operating point: fmax(voltage) = frequency.
func WithNominal(voltage, frequency float64) Option {
	return func(p *Processor) {
		p.nominalVoltage = voltage
		p.nominalFrequency = frequency
	}
}

// WithThresholdVoltage sets the transistor threshold voltage Vth (V).
func WithThresholdVoltage(v float64) Option {
	return func(p *Processor) { p.thresholdVoltage = v }
}

// WithAlpha sets the alpha-power-law velocity-saturation exponent.
func WithAlpha(a float64) Option {
	return func(p *Processor) { p.alpha = a }
}

// WithSwitchedCapacitance sets the effective switched capacitance Ceff (F).
func WithSwitchedCapacitance(farads float64) Option {
	return func(p *Processor) { p.switchedCap = farads }
}

// WithLeakage sets the leakage model Ileak(V) = i0 * exp(kDIBL*V).
func WithLeakage(i0, kDIBL float64) Option {
	return func(p *Processor) {
		p.leakageCurrent0 = i0
		p.dibl = kDIBL
	}
}

// WithVoltageRange sets the functional supply range [min, max] (V).
func WithVoltageRange(minV, maxV float64) Option {
	return func(p *Processor) {
		p.minVoltage = minV
		p.maxVoltage = maxV
	}
}

// Corner identifies a process corner of the fabricated die. The paper
// evaluates one test chip; corners let the analyses ask how its conclusions
// move across a production spread.
type Corner int

// Process corners. Values start at 1 so the zero value is invalid.
const (
	CornerSlow    Corner = iota + 1 // SS: slow transistors, low leakage
	CornerTypical                   // TT: nominal
	CornerFast                      // FF: fast transistors, high leakage
)

// String implements fmt.Stringer.
func (c Corner) String() string {
	switch c {
	case CornerSlow:
		return "SS"
	case CornerTypical:
		return "TT"
	case CornerFast:
		return "FF"
	default:
		return "corner?"
	}
}

// WithTemperature shifts the model from its 25 C calibration point to the
// given die temperature (Celsius) using first-order silicon sensitivities:
// subthreshold leakage doubles roughly every 15 C, the threshold voltage
// falls ~2 mV/C, and carrier mobility costs ~0.2%/C of peak frequency.
// Outdoor IoT nodes see exactly this spread (-20 C winter to +60 C in
// direct sun), and leakage-vs-temperature moves the minimum energy point.
func WithTemperature(celsius float64) Option {
	return func(p *Processor) {
		dT := celsius - 25.0
		p.leakageCurrent0 *= math.Pow(2, dT/15.0)
		p.thresholdVoltage -= 0.002 * dT
		p.nominalFrequency *= 1 - 0.002*dT
	}
}

// WithCorner scales the nominal model to a process corner: slow silicon
// loses ~12% frequency and halves leakage; fast silicon gains ~12%
// frequency with ~2.2x leakage, the classic SS/FF spread.
func WithCorner(c Corner) Option {
	return func(p *Processor) {
		switch c {
		case CornerSlow:
			p.nominalFrequency *= 0.88
			p.leakageCurrent0 *= 0.5
			p.thresholdVoltage += 0.02
		case CornerFast:
			p.nominalFrequency *= 1.12
			p.leakageCurrent0 *= 2.2
			p.thresholdVoltage -= 0.02
		}
	}
}

// NewProcessor returns the default image-processor model described in the
// package comment. Options override individual parameters.
func NewProcessor(opts ...Option) *Processor {
	p := &Processor{
		nominalVoltage:   1.0,
		nominalFrequency: 1.0e9,
		thresholdVoltage: 0.32,
		alpha:            1.4,
		switchedCap:      85e-12,
		leakageCurrent0:  0.45e-3,
		dibl:             3.0,
		minVoltage:       0.34,
		maxVoltage:       1.2,
	}
	for _, opt := range opts {
		opt(p)
	}
	p.powNorm = math.Pow(p.nominalVoltage-p.thresholdVoltage, p.alpha) / p.nominalVoltage
	p.fmaxAtVmax = p.MaxFrequency(p.maxVoltage)
	return p
}

// MinVoltage returns the lowest functional supply voltage (V).
func (p *Processor) MinVoltage() float64 { return p.minVoltage }

// MaxVoltage returns the highest rated supply voltage (V).
func (p *Processor) MaxVoltage() float64 { return p.maxVoltage }

// ThresholdVoltage returns the transistor threshold voltage (V).
func (p *Processor) ThresholdVoltage() float64 { return p.thresholdVoltage }

// MaxFrequency returns the highest clock frequency (Hz) the core sustains at
// supply voltage v, per the alpha-power law. It returns 0 at or below the
// threshold voltage.
func (p *Processor) MaxFrequency(v float64) float64 {
	if v <= p.thresholdVoltage {
		return 0
	}
	return p.nominalFrequency * math.Pow(v-p.thresholdVoltage, p.alpha) / v / p.powNorm
}

// DynamicPower returns the switching power (W) at supply voltage v and clock
// frequency f. The frequency is clamped to MaxFrequency(v).
func (p *Processor) DynamicPower(v, f float64) float64 {
	if v <= 0 || f <= 0 {
		return 0 // before the alpha law: a gated clock costs no math.Pow
	}
	return p.dynamicPower(v, f, p.MaxFrequency(v))
}

// dynamicPower is DynamicPower given fm = MaxFrequency(v), which a
// SupplyMemo serves from its cache.
func (p *Processor) dynamicPower(v, f, fm float64) float64 {
	if v <= 0 || f <= 0 {
		return 0
	}
	if f > fm {
		f = fm
	}
	return p.switchedCap * v * v * f
}

// LeakagePower returns the static power (W) at supply voltage v.
func (p *Processor) LeakagePower(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * p.leakageCurrent0 * math.Exp(p.dibl*v)
}

// Power returns total power (W) at supply voltage v and clock frequency f.
func (p *Processor) Power(v, f float64) float64 {
	return p.DynamicPower(v, f) + p.LeakagePower(v)
}

// MaxPower returns total power (W) at supply voltage v running at the
// maximum frequency for that voltage.
func (p *Processor) MaxPower(v float64) float64 {
	return p.Power(v, p.MaxFrequency(v))
}

// Current returns the supply current (A) drawn at voltage v and frequency f.
// It is the load-line used when the core connects directly to a harvester.
func (p *Processor) Current(v, f float64) float64 {
	if v <= 0 {
		return 0
	}
	return p.Power(v, f) / v
}

// MaxCurrent returns the supply current (A) at voltage v and full speed.
func (p *Processor) MaxCurrent(v float64) float64 {
	return p.Current(v, p.MaxFrequency(v))
}

// EnergyPerCycle returns the total energy (J) consumed per clock cycle when
// running at voltage v and full speed: Ceff*V^2 + Pleak(V)/fmax(V). This is
// the quantity minimised by the conventional minimum-energy-point analysis.
// It returns +Inf at or below the threshold voltage, where the clock stalls
// while leakage persists.
func (p *Processor) EnergyPerCycle(v float64) float64 {
	f := p.MaxFrequency(v)
	if f <= 0 {
		return math.Inf(1)
	}
	return p.switchedCap*v*v + p.LeakagePower(v)/f
}

// DynamicEnergyPerCycle returns only the switching energy per cycle (J).
func (p *Processor) DynamicEnergyPerCycle(v float64) float64 {
	return p.switchedCap * v * v
}

// LeakageEnergyPerCycle returns only the leakage energy per cycle (J) at
// full speed, +Inf at or below threshold.
func (p *Processor) LeakageEnergyPerCycle(v float64) float64 {
	f := p.MaxFrequency(v)
	if f <= 0 {
		return math.Inf(1)
	}
	return p.LeakagePower(v) / f
}

// ConventionalMEP returns the supply voltage (V) minimising EnergyPerCycle
// over the functional voltage range, together with the minimum energy per
// cycle (J). This is the classical minimum energy point that ignores the
// voltage regulator, as in the paper's ref. [24].
func (p *Processor) ConventionalMEP() (voltage, energy float64) {
	return minimizeEnergy(p.minVoltage, p.maxVoltage, p.EnergyPerCycle)
}

// minimizeEnergy finds the minimiser of f over [lo, hi] by golden-section
// search. f must be unimodal over the interval, which holds for energy-per-
// cycle style curves (leakage-dominated on the left, dynamic on the right).
func minimizeEnergy(lo, hi float64, f func(float64) float64) (x, fx float64) {
	const invPhi = 0.6180339887498949
	x1 := hi - invPhi*(hi-lo)
	x2 := lo + invPhi*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		if f1 > f2 {
			lo = x1
			x1, f1 = x2, f2
			x2 = lo + invPhi*(hi-lo)
			f2 = f(x2)
		} else {
			hi = x2
			x2, f2 = x1, f1
			x1 = hi - invPhi*(hi-lo)
			f1 = f(x1)
		}
	}
	x = 0.5 * (lo + hi)
	return x, f(x)
}

// MinimizeEnergyOver minimises an arbitrary per-cycle energy function over
// the processor's functional voltage range. It is exported so that holistic
// analyses can fold regulator efficiency into the objective while reusing
// the same solver and range.
func (p *Processor) MinimizeEnergyOver(energyAt func(v float64) float64) (voltage, energy float64) {
	return minimizeEnergy(p.minVoltage, p.maxVoltage, energyAt)
}

// VoltageForFrequency returns the lowest supply voltage (V) at which the
// core sustains clock frequency f. It returns ErrUnreachableFrequency if f
// exceeds MaxFrequency(maxVoltage).
func (p *Processor) VoltageForFrequency(f float64) (float64, error) {
	return p.VoltageForFrequencyWarm(f, nil)
}

// FreqSolverState memoizes the last VoltageForFrequencyWarm solve as the
// interval of frequencies that take the same bisection path. The bisection
// starts from a fixed bracket and each probe voltage is fixed by the
// decisions before it, so two frequencies that decide every probe the same
// way take the same path and get the same voltage. For the solved f, let fA
// be the largest MaxFrequency of a probe that moved lo (fmax < f) and fB
// the smallest of a probe that moved hi (fmax >= f): every f' with
// fA < f' <= fB decides each probe as f did, so the memo answers it without
// a single alpha-law evaluation. A NaN fmax moves hi for every f, so it
// bounds nothing. A DVFS controller's commanded rate drifts slowly, so
// nearly every step lands in the previous step's interval. The zero value
// is an empty memo. Not safe for concurrent use; results are exactly those
// of the stateless VoltageForFrequency.
type FreqSolverState struct {
	proc   *Processor // the processor the interval belongs to
	fA, fB float64    // frequencies in (fA, fB] take the memoized path
	v      float64    // the voltage that path returns
}

// VoltageForFrequencyWarm is VoltageForFrequency with a per-caller memo. It
// returns bit-identical results for every input; state (which may be nil)
// only changes how many alpha-power-law evaluations the solve costs.
func (p *Processor) VoltageForFrequencyWarm(f float64, state *FreqSolverState) (float64, error) {
	if f <= 0 {
		return p.minVoltage, nil
	}
	if f > p.fmaxAtVmax {
		return 0, ErrUnreachableFrequency
	}
	// The processor is immutable after construction, so pointer identity
	// is a sound key.
	if state != nil && state.proc == p && state.fA < f && f <= state.fB {
		return state.v, nil
	}
	fA, fB := math.Inf(-1), math.Inf(1)
	lo, hi := p.thresholdVoltage, p.maxVoltage
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		mid := 0.5 * (lo + hi)
		fm := p.MaxFrequency(mid)
		if fm < f {
			lo = mid
			if fm > fA {
				fA = fm
			}
		} else {
			hi = mid
			if fm < fB {
				fB = fm
			}
		}
	}
	v := 0.5 * (lo + hi)
	if v < p.minVoltage {
		v = p.minVoltage
	}
	if state != nil {
		*state = FreqSolverState{proc: p, fA: fA, fB: fB, v: v}
	}
	return v, nil
}

// SupplyMemo is a caller-owned one-entry memo of the processor model's
// supply-dependent terms, MaxFrequency(v) and LeakagePower(v), keyed on the
// processor and the bits of v. A transient simulator resolves its operating
// point every step at a supply that mostly repeats (a regulated output
// holds its commanded voltage), so a hit skips the alpha law's math.Pow and
// the leakage exponential. Its methods return exactly what the Processor
// methods of the same names return, for every input. The zero value is an
// empty memo; it is not safe for concurrent use, and the Processor itself
// stays immutable and shareable.
type SupplyMemo struct {
	proc       *Processor // the processor the entry belongs to
	vbits      uint64     // math.Float64bits of the memoized supply
	fmax, leak float64    // MaxFrequency and LeakagePower there
}

// at makes the memo hold p's terms at supply v.
func (m *SupplyMemo) at(p *Processor, v float64) {
	if b := math.Float64bits(v); m.proc != p || m.vbits != b {
		m.proc, m.vbits = p, b
		m.fmax, m.leak = p.MaxFrequency(v), p.LeakagePower(v)
	}
}

// MaxFrequency returns p.MaxFrequency(v).
func (m *SupplyMemo) MaxFrequency(p *Processor, v float64) float64 {
	m.at(p, v)
	return m.fmax
}

// LeakagePower returns p.LeakagePower(v).
func (m *SupplyMemo) LeakagePower(p *Processor, v float64) float64 {
	m.at(p, v)
	return m.leak
}

// Power returns p.Power(v, f).
func (m *SupplyMemo) Power(p *Processor, v, f float64) float64 {
	m.at(p, v)
	return p.dynamicPower(v, f, m.fmax) + m.leak
}

// VoltageForMaxPower returns the supply voltage (V) at which full-speed
// operation consumes exactly budget watts. MaxPower is strictly increasing
// in voltage above threshold, so the solution is unique. It returns
// ErrInsufficientPower when the budget is below the minimum operating power
// and caps at MaxVoltage when the budget exceeds the maximum draw.
func (p *Processor) VoltageForMaxPower(budget float64) (float64, error) {
	if budget < p.MaxPower(p.minVoltage) {
		return 0, ErrInsufficientPower
	}
	if budget >= p.MaxPower(p.maxVoltage) {
		return p.maxVoltage, nil
	}
	lo, hi := p.minVoltage, p.maxVoltage
	for iter := 0; iter < maxSolverIterations && hi-lo > voltageSolveTolerance; iter++ {
		mid := 0.5 * (lo + hi)
		if p.MaxPower(mid) < budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// FrequencyForPower returns the highest clock frequency (Hz) sustainable at
// supply voltage v within a total power budget (W), accounting for leakage.
// The result is capped at MaxFrequency(v). It returns 0 if leakage alone
// exceeds the budget.
func (p *Processor) FrequencyForPower(v, budget float64) float64 {
	if v <= p.thresholdVoltage {
		return 0
	}
	avail := budget - p.LeakagePower(v)
	if avail <= 0 {
		return 0
	}
	f := avail / (p.switchedCap * v * v)
	if fm := p.MaxFrequency(v); f > fm {
		f = fm
	}
	return f
}

// OperatingPoint is a fully determined DVFS setting.
type OperatingPoint struct {
	Voltage   float64 // supply voltage (V)
	Frequency float64 // clock frequency (Hz)
	Power     float64 // total power at this point (W)
}

// BestPointForBudget returns the DVFS operating point maximising clock
// frequency subject to a total power budget (W), searching supply voltages
// in [minV, maxV] intersected with the processor's functional range. This
// implements the Sec. IV optimisation for a fixed available power. It
// returns ErrInsufficientPower if no voltage in range can run at all.
func (p *Processor) BestPointForBudget(budget, minV, maxV float64) (OperatingPoint, error) {
	lo := math.Max(minV, p.minVoltage)
	hi := math.Min(maxV, p.maxVoltage)
	if lo > hi {
		return OperatingPoint{}, ErrEmptyVoltageRange
	}
	// Frequency-vs-voltage under a power cap is unimodal: rising while the
	// cap is not binding (f = fmax(V)), falling once it binds (f ~ B/V^2).
	// Golden-section search on -frequency.
	neg := func(v float64) float64 { return -p.FrequencyForPower(v, budget) }
	v, negF := minimizeEnergy(lo, hi, neg)
	f := -negF
	if f <= 0 {
		return OperatingPoint{}, ErrInsufficientPower
	}
	return OperatingPoint{Voltage: v, Frequency: f, Power: p.Power(v, f)}, nil
}
