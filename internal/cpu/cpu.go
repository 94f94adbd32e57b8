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

	"repro/internal/search"
)

// Solver parameters shared by the iterative routines in this package.
const (
	voltageSolveTolerance = 1e-7
	maxSolverIterations   = 200
)

// Errors returned by this package.
var (
	// ErrUnreachableFrequency indicates that no voltage within the valid
	// operating range reaches the requested frequency.
	ErrUnreachableFrequency = errors.New("cpu: frequency unreachable within voltage range")
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
	powFrac    float64 // alpha's fraction as math.Pow splits it, 0 when alphaLaw defers to math.Pow
}

// Option configures a Processor.
type Option func(*Processor)

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
	// math.Pow's split of the exponent: Modf, then a fraction above 1/2
	// folds into the integer part. alphaLaw runs the splits whose integer
	// part is 1; a negative alpha splits into non-positive parts.
	yi, yf := math.Modf(p.alpha)
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi == 1 {
		p.powFrac = yf
	}
	p.powNorm = math.Pow(p.nominalVoltage-p.thresholdVoltage, p.alpha) / p.nominalVoltage
	p.fmaxAtVmax = p.MaxFrequency(p.maxVoltage)
	return p
}

// MinVoltage returns the lowest functional supply voltage (V).
func (p *Processor) MinVoltage() float64 { return p.minVoltage }

// MaxVoltage returns the highest rated supply voltage (V).
func (p *Processor) MaxVoltage() float64 { return p.maxVoltage }

// MaxFrequency returns the highest clock frequency (Hz) the core sustains at
// supply voltage v, per the alpha-power law. It returns 0 at or below the
// threshold voltage.
func (p *Processor) MaxFrequency(v float64) float64 {
	if v <= p.thresholdVoltage {
		return 0
	}
	return p.nominalFrequency * p.alphaLaw(v-p.thresholdVoltage) / v / p.powNorm
}

// alphaLaw returns math.Pow(x, p.alpha), bit for bit, by math.Pow's own
// operations where they are short. For y > 0 whose split (see NewProcessor)
// is yi = 1 and yf != 0 — the default alpha = 1.4 splits into 1 and
// 0.3999… — and x normal, math.Pow computes a1 = Exp(yf*Log(x)), multiplies
// it by Frexp's mantissa x1 of x and scales the product by 2^xe with
// Ldexp. For x in [2^-600, 2^600], a1 = x^yf lies in [2^-300, 2^300]
// (|yf| <= 1/2) and the result in [2^-900, 2^900]: both products are normal
// and Ldexp is exact, and rounding commutes with scaling by a power of two,
// so that result is a1*x rounded once. The kernel calls the same Exp and Log
// as math.Pow, so it agrees on every math path (assembly or portable, with
// or without FMA). Every other exponent and x falls back to math.Pow
// (FuzzAlphaLaw).
func (p *Processor) alphaLaw(x float64) float64 {
	if p.powFrac != 0 && x >= 0x1p-600 && x <= 0x1p600 {
		return math.Exp(p.powFrac*math.Log(x)) * x
	}
	return math.Pow(x, p.alpha)
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
// voltage regulator, as in the paper's ref. [24]. It is found by
// golden-section search: energy per cycle is unimodal in the supply
// (leakage-dominated on the left, dynamic on the right).
func (p *Processor) ConventionalMEP() (voltage, energy float64) {
	lo, hi := search.GoldenMax(p.minVoltage, p.maxVoltage, voltageSolveTolerance, maxSolverIterations,
		func(v float64) float64 { return -p.EnergyPerCycle(v) })
	voltage = 0.5 * (lo + hi)
	return voltage, p.EnergyPerCycle(voltage)
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
	lo, hi := search.Bisect(p.thresholdVoltage, p.maxVoltage, voltageSolveTolerance, maxSolverIterations,
		func(mid float64) bool {
			fm := p.MaxFrequency(mid)
			if fm < f {
				if fm > fA {
					fA = fm
				}
				return true
			}
			if fm < fB {
				fB = fm
			}
			return false
		})
	v := 0.5 * (lo + hi)
	if v < p.minVoltage {
		v = p.minVoltage
	}
	if state != nil {
		*state = FreqSolverState{proc: p, fA: fA, fB: fB, v: v}
	}
	return v, nil
}

// SupplyMemo is a caller-owned memo of the processor model's
// supply-dependent terms, LeakagePower(v) and MaxFrequency(v), keyed on the
// processor and the bits of v. A transient simulator resolves its operating
// point every step at a supply that mostly repeats (a regulated output
// holds its commanded voltage), so a hit skips the leakage exponential and
// the alpha law. The alpha law runs only when a caller needs fmax's bits:
// the memo keeps its last evaluation as a knot, and a clock that the knot
// certifies below fmax (see certSlack) needs none. A bypassed core's
// supply is the storage node, which moves every step, and its commanded
// clock sits far below fmax, so the knot serves nearly all of its running
// steps. Its methods return exactly what the Processor methods of the same
// names return, and CappedFrequency what math.Min(f, MaxFrequency(v))
// returns, for every input. The zero value is an empty memo; it is not
// safe for concurrent use, and the Processor itself stays immutable and
// shareable.
type SupplyMemo struct {
	proc  *Processor // the processor the entries belong to
	vbits uint64     // math.Float64bits of the memoized supply
	leak  float64    // LeakagePower there
	fbits uint64     // math.Float64bits of the supply of the last alpha-law evaluation, the knot
	fmax  float64    // MaxFrequency there
	coef  float64    // the knot's certificate coefficient; 0 certifies nothing
}

// at makes the memo hold p's leakage at supply v. A new processor also
// gets its first alpha-law evaluation, so that fbits always names a supply
// whose fmax the memo holds.
func (m *SupplyMemo) at(p *Processor, v float64) {
	b := math.Float64bits(v)
	if m.proc != p {
		m.proc, m.vbits, m.leak = p, b, p.LeakagePower(v)
		m.evaluate(p, v)
	} else if m.vbits != b {
		m.vbits, m.leak = b, p.LeakagePower(v)
	}
}

// evaluate runs the alpha law at the memoized supply v and makes it the
// knot.
func (m *SupplyMemo) evaluate(p *Processor, v float64) {
	m.fbits, m.fmax = m.vbits, p.MaxFrequency(v)
	m.coef = p.knotCoef(v, m.fmax)
}

// maxFrequency returns p.MaxFrequency(v) at the memoized supply v,
// evaluating the alpha law only when the last evaluation was at another
// supply.
func (m *SupplyMemo) maxFrequency(p *Processor, v float64) float64 {
	if m.fbits != m.vbits {
		m.evaluate(p, v)
	}
	return m.fmax
}

// Certificate slack. Let x = v-Vth and kx = kv-Vth be the differences
// MaxFrequency computes at a supply v and at the knot kv, and E(v) =
// fnom*x^alpha/v/powNorm the exact value of its expression. For
// 1 <= alpha <= 2 and Vth >= 0, E(v) >= E(kv)*(min(x, kx)/kx)^2*(1-2u) with
// u = 2^-53. Below the knot, (x/kx)^alpha >= (x/kx)^2 and kv/v > 1. Above
// it, (x/kx)^alpha >= x/kx >= v/kv up to the roundings of x and kx (2u);
// 2u also bounds what kv/v can lose when v > kv rounds to x = kx. Inside
// the envelope of knotCoef every intermediate is normal, so the computed
// fmax is E*(1+d) with |d| <= eps. math.Pow evaluates Exp(yf*Log(x)), and
// on every math path Log and Exp are each within 1 ulp (2u): the
// argument's relative error of 3u, times |yf*ln x| <= 22.2 (|yf| <= 1/2,
// |ln x| <= 64 ln 2), passes through Exp as 66.6u; add 2u for Exp, 2u for
// at most two integer-part products and 3u for MaxFrequency's multiply and
// two divisions: eps <= 74u. So fmax(v) >= fmax(kv)*(min(x, kx)/kx)^2*
// (1-2eps-2u). The coefficient fmax(kv)*(1-certSlack)/kx^2 and the bound
// coef*x*x round five times (5u), so any certSlack >= 2eps+7u = 155u
// (about 1.7e-14) keeps the bound at or below fmax(v). 2^-40 (8,192u)
// leaves a 50-fold margin and withholds only 1e-12 of fmax.
const certSlack = 0x1p-40

// knotCoef returns the certificate coefficient for a knot at supply v with
// fm = MaxFrequency(v), or 0 outside the envelope where the certSlack
// derivation holds: 1 <= alpha <= 2, Vth >= 0, fnom, powNorm, Vmin and Vmax
// in [2^-64, 2^64], v in [Vmin, Vmax] and v-Vth >= 2^-64.
func (p *Processor) knotCoef(v, fm float64) float64 {
	x := v - p.thresholdVoltage
	if !(p.alpha >= 1 && p.alpha <= 2 && p.thresholdVoltage >= 0 &&
		inCertRange(p.nominalFrequency) && inCertRange(p.powNorm) &&
		inCertRange(p.minVoltage) && inCertRange(p.maxVoltage) &&
		v >= p.minVoltage && v <= p.maxVoltage && x >= 0x1p-64) {
		return 0
	}
	return fm * (1 - certSlack) / (x * x)
}

// inCertRange reports whether a positive parameter lies in [2^-64, 2^64].
func inCertRange(a float64) bool { return a >= 0x1p-64 && a <= 0x1p64 }

// below reports whether the knot certifies f < p.MaxFrequency(v) at the
// memoized supply v: f < coef*min(x, kx)^2 for a supply v in [Vmin, Vmax]
// with x = v-Vth >= 2^-64 and a non-negative f (see certSlack). A false
// answer proves nothing.
func (m *SupplyMemo) below(p *Processor, v, f float64) bool {
	x := v - p.thresholdVoltage
	if !(v >= p.minVoltage && v <= p.maxVoltage && x >= 0x1p-64 && f >= 0) {
		return false
	}
	if kx := math.Float64frombits(m.fbits) - p.thresholdVoltage; x > kx {
		x = kx
	}
	return f < m.coef*x*x
}

// MaxFrequency returns p.MaxFrequency(v).
func (m *SupplyMemo) MaxFrequency(p *Processor, v float64) float64 {
	m.at(p, v)
	return m.maxFrequency(p, v)
}

// CappedFrequency returns math.Min(f, p.MaxFrequency(v)), the clock a core
// commanded to f runs at supply v. A clock the knot certifies below fmax
// is returned as it is, without the alpha law.
func (m *SupplyMemo) CappedFrequency(p *Processor, v, f float64) float64 {
	m.at(p, v)
	if m.fbits != m.vbits && m.below(p, v, f) {
		return f
	}
	return math.Min(f, m.maxFrequency(p, v))
}

// LeakagePower returns p.LeakagePower(v).
func (m *SupplyMemo) LeakagePower(p *Processor, v float64) float64 {
	m.at(p, v)
	return m.leak
}

// Power returns p.Power(v, f). A clock the knot certifies below fmax needs
// no clamp, so it costs no alpha law.
func (m *SupplyMemo) Power(p *Processor, v, f float64) float64 {
	m.at(p, v)
	if m.fbits != m.vbits && m.below(p, v, f) {
		return p.dynamicPower(v, f, math.Inf(1)) + m.leak
	}
	return p.dynamicPower(v, f, m.maxFrequency(p, v)) + m.leak
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
