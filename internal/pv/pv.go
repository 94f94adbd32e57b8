// Package pv models photovoltaic energy harvesters using the standard
// single-diode equivalent circuit. The default cell is calibrated against
// the monocrystalline IXYS KX0B22-04X3F module measured in the paper
// (three series junctions, 22x7 mm, ~22% conversion efficiency): under full
// sun it produces an open-circuit voltage of ~1.4 V, a short-circuit current
// of ~16 mA, and a maximum power point (MPP) of ~13 mW near 1.0 V.
//
// All quantities use SI units: volts, amps, watts, ohms.
package pv

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/search"
)

// Physical constants for the diode equation.
const (
	// thermalVoltage is kT/q at ~300 K in volts.
	thermalVoltage = 0.02585

	// currentSolveTolerance is the absolute voltage tolerance used by the
	// bisection solvers (V).
	voltageSolveTolerance = 1e-7

	// maxSolverIterations bounds all iterative solvers in this package.
	maxSolverIterations = 200
)

// Common irradiance levels, expressed as a fraction of full sunlight, that
// correspond to the measurement conditions of the paper's Fig. 2.
const (
	FullSun      = 1.0   // direct outdoor sunlight
	BrightSun    = 0.75  // outdoor, light haze
	HalfSun      = 0.5   // outdoor, cloudy ("Solar 1/2 Power")
	QuarterSun   = 0.25  // heavy overcast ("Solar 1/4 Power")
	IndoorBright = 0.10  // bright indoor lighting near a window
	IndoorDim    = 0.025 // typical office indoor lighting
)

// Errors returned by the solvers in this package.
var (
	// ErrNoOperatingPoint indicates that a load line does not intersect the
	// cell's I-V curve in the valid first quadrant.
	ErrNoOperatingPoint = errors.New("pv: load line does not intersect I-V curve")

	// ErrInvalidIrradiance indicates a non-positive irradiance fraction.
	ErrInvalidIrradiance = errors.New("pv: irradiance must be positive")
)

// Cell is a photovoltaic module modelled with the single-diode equation
//
//	I(V) = Iph - I0*(exp((V+I*Rs)/(Ns*n*VT)) - 1) - (V+I*Rs)/Rsh
//
// where Iph scales linearly with irradiance. The zero value is not useful;
// construct cells with NewCell. A Cell is immutable once NewCell returns
// it, so it may be shared, and a per-caller memo may key on its pointer
// (SolverState does).
type Cell struct {
	photoCurrentFullSun float64 // Iph at irradiance 1.0 (A)
	saturationCurrent   float64 // diode reverse saturation current I0 (A)
	idealityFactor      float64 // diode ideality factor n
	seriesCells         int     // number of series junctions Ns
	seriesResistance    float64 // Rs (ohm)
	shuntResistance     float64 // Rsh (ohm)

	// Derived by NewCell from the parameters above: the junction scale
	// Ns*n*VT, the inverses and curvature coefficient I0*(Rs/s)^2 the
	// Newton solve needs, and whether the parameters lie inside the Newton
	// fast path's envelope (see newtonRoot).
	scale, invRsh, invScale, curvCoef float64
	newton                            bool
}

// Option configures a Cell.
type Option func(*Cell)

// WithPhotoCurrent sets the full-sun photocurrent (A). It approximately
// equals the short-circuit current at irradiance 1.0.
func WithPhotoCurrent(amps float64) Option {
	return func(c *Cell) { c.photoCurrentFullSun = amps }
}

// WithSaturationCurrent sets the diode reverse saturation current (A), which
// controls the open-circuit voltage.
func WithSaturationCurrent(amps float64) Option {
	return func(c *Cell) { c.saturationCurrent = amps }
}

// WithIdealityFactor sets the diode ideality factor (dimensionless, >= 1).
func WithIdealityFactor(n float64) Option {
	return func(c *Cell) { c.idealityFactor = n }
}

// WithSeriesCells sets the number of series junctions in the module.
func WithSeriesCells(n int) Option {
	return func(c *Cell) { c.seriesCells = n }
}

// WithSeriesResistance sets the lumped series resistance (ohm).
func WithSeriesResistance(ohms float64) Option {
	return func(c *Cell) { c.seriesResistance = ohms }
}

// WithShuntResistance sets the lumped shunt resistance (ohm).
func WithShuntResistance(ohms float64) Option {
	return func(c *Cell) { c.shuntResistance = ohms }
}

// NewCell returns a Cell calibrated to the paper's IXYS module by default.
// Options override individual parameters.
func NewCell(opts ...Option) *Cell {
	c := &Cell{
		photoCurrentFullSun: 16e-3,
		idealityFactor:      1.5,
		seriesCells:         3,
		seriesResistance:    2.0,
		shuntResistance:     3000.0,
	}
	// Choose I0 so that Voc at full sun is ~1.4 V for the default geometry:
	// Voc = Ns*n*VT*ln(Iph/I0 + 1)  =>  I0 = Iph/(exp(Voc/(Ns*n*VT)) - 1).
	const targetVoc = 1.4
	defaultScale := float64(c.seriesCells) * c.idealityFactor * thermalVoltage
	c.saturationCurrent = c.photoCurrentFullSun / (math.Exp(targetVoc/defaultScale) - 1)
	for _, opt := range opts {
		opt(c)
	}
	rs, rsh, i0 := c.seriesResistance, c.shuntResistance, c.saturationCurrent
	c.scale = float64(c.seriesCells) * c.idealityFactor * thermalVoltage
	c.invRsh, c.invScale = 1/rsh, 1/c.scale
	c.curvCoef = i0 * (rs * c.invScale) * (rs * c.invScale)
	// The envelope: these are what guarantee f' <= -1 and the concavity
	// that Newton's global convergence and the replay's sign predictions
	// rest on. Outside it every solve takes the reference bisection.
	c.newton = rs > 0 && isFinite(rs) && rsh > 0 && isFinite(rsh) &&
		i0 >= 0 && isFinite(i0) && c.scale > 0 && isFinite(c.scale)
	return c
}

// photoCurrent returns the light-generated current at the given irradiance
// fraction (A).
func (c *Cell) photoCurrent(irradiance float64) float64 {
	return c.photoCurrentFullSun * irradiance
}

// Current returns the terminal current (A) delivered by the cell at terminal
// voltage v (V) and the given irradiance fraction. Voltages above open
// circuit yield negative current (the cell would sink current); callers that
// model harvesting should treat negative values as zero harvested power.
//
// With series resistance the equation is implicit in I:
// f(I) = Iph - Id(V+I*Rs) - (V+I*Rs)/Rsh - I is strictly decreasing in I.
// The solve runs on the Newton fast path with a bit-exact bisection replay
// (see newton.go), falling back to the reference bisection whenever the
// fast path's assumptions fail; the result is bit-identical to
// CurrentReference for every input. Transient simulators should prefer
// CurrentWarm, which additionally warm-starts the solve across steps.
func (c *Cell) Current(v, irradiance float64) float64 {
	if irradiance <= 0 {
		return 0
	}
	iph := c.photoCurrent(irradiance)
	if c.seriesResistance == 0 {
		return iph - c.diodeCurrent(v) - v/c.shuntResistance
	}
	return c.currentFast(v, iph, nil)
}

// diodeCurrent returns the diode branch current at diode voltage vd.
func (c *Cell) diodeCurrent(vd float64) float64 {
	if vd <= 0 {
		return 0
	}
	return c.saturationCurrent * (math.Exp(vd/c.scale) - 1)
}

// Power returns the electrical power (W) delivered at terminal voltage v and
// irradiance fraction. Negative currents clamp to zero power because a
// harvesting system never sinks power into the cell.
func (c *Cell) Power(v, irradiance float64) float64 {
	i := c.Current(v, irradiance)
	if i <= 0 || v <= 0 {
		return 0
	}
	return v * i
}

// ShortCircuitCurrent returns Isc (A) at the given irradiance fraction.
func (c *Cell) ShortCircuitCurrent(irradiance float64) float64 {
	return c.Current(0, irradiance)
}

// OpenCircuitVoltage returns Voc (V) at the given irradiance fraction,
// found by bisection on Current(v) = 0. The iteration cap matters only
// when the photocurrent overflows: the bracket top is then +Inf and never
// narrows.
func (c *Cell) OpenCircuitVoltage(irradiance float64) float64 {
	if irradiance <= 0 {
		return 0
	}
	top := 2.0 * c.scale * math.Log(c.photoCurrent(irradiance)/c.saturationCurrent+1)
	lo, hi := search.Bisect(0, top, voltageSolveTolerance, maxSolverIterations,
		func(v float64) bool { return c.Current(v, irradiance) > 0 })
	return 0.5 * (lo + hi)
}

// MPP returns the maximum power point voltage (V) and power (W) at the given
// irradiance fraction, found by golden-section search over [0, Voc]. Power
// is unimodal in voltage for the single-diode model, so the search is exact
// to the solver tolerance.
func (c *Cell) MPP(irradiance float64) (voltage, power float64) {
	if irradiance <= 0 {
		return 0, 0
	}
	lo, hi := search.GoldenMax(0, c.OpenCircuitVoltage(irradiance), voltageSolveTolerance, maxSolverIterations,
		func(v float64) float64 { return c.Power(v, irradiance) })
	v := 0.5 * (lo + hi)
	return v, c.Power(v, irradiance)
}

// OperatingPoint solves for the stable terminal voltage at which the cell's
// output current equals the demand of the given load. load reports the
// current (A) the load draws at a given terminal voltage; it must be
// non-decreasing in voltage for the intersection to be unique. The returned
// voltage satisfies Current(v) = load(v) within solver tolerance.
func (c *Cell) OperatingPoint(irradiance float64, load func(v float64) float64) (float64, error) {
	if irradiance <= 0 {
		return 0, ErrInvalidIrradiance
	}
	voc := c.OpenCircuitVoltage(irradiance)
	g := func(v float64) float64 { return c.Current(v, irradiance) - load(v) }
	if g(0) < 0 {
		return 0, fmt.Errorf("%w: load draws %.3g A at 0 V but cell supplies at most %.3g A",
			ErrNoOperatingPoint, load(0), c.ShortCircuitCurrent(irradiance))
	}
	if g(voc) > 0 {
		// Load draws nothing even at Voc: the node floats at Voc.
		return voc, nil
	}
	lo, hi := search.Bisect(0, voc, voltageSolveTolerance, maxSolverIterations,
		func(v float64) bool { return g(v) > 0 })
	return 0.5 * (lo + hi), nil
}

// Point is a single sample of the I-V curve.
type Point struct {
	Voltage float64 // terminal voltage (V)
	Current float64 // terminal current (A)
	Power   float64 // terminal power (W)
}

// Curve samples the I-V curve at n evenly spaced voltages from 0 to Voc
// (inclusive) at the given irradiance fraction. It returns nil if n < 2 or
// irradiance is non-positive. The returned slice is always the caller's to
// mutate. One walking SolverState carries each point's warm start to the
// next: the grid is exactly the fine, slowly-moving voltage sequence the
// warm state was built for, and CurrentWarm returns bit-identical results
// to Current whatever the state holds (see newton.go).
func (c *Cell) Curve(irradiance float64, n int) []Point {
	if n < 2 || irradiance <= 0 {
		return nil
	}
	voc := c.OpenCircuitVoltage(irradiance)
	var walk SolverState
	pts := make([]Point, n)
	for k := range pts {
		v := voc * float64(k) / float64(n-1)
		i := c.CurrentWarm(v, irradiance, &walk)
		if i < 0 {
			i = 0
		}
		pts[k] = Point{Voltage: v, Current: i, Power: v * i}
	}
	return pts
}
