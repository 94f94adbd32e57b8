// Package reg models the fully integrated on-chip voltage regulators studied
// in the paper: a low-dropout linear regulator (LDO, Fig. 3), a multi-ratio
// switched-capacitor converter (SC, Fig. 4) and an on-chip buck converter
// (Fig. 5). Each model exposes power efficiency as a function of
// input voltage, output voltage and delivered load power, calibrated to the
// corner points the paper quotes (e.g. SC: 67% at 0.55 V full load, 64% at
// half load; buck: 63%/58%; LDO: 45% at 0.55 V).
//
// All quantities use SI units: volts, amps, watts.
package reg

import (
	"errors"
	"math"

	"repro/internal/search"
)

// Solver parameters for the iterative routines in this package.
const (
	powerSolveTolerance = 1e-10 // absolute output-power tolerance (W)
	maxSolverIterations = 200
)

// Errors returned by this package.
var (
	// ErrUnreachableOutput indicates the requested output voltage is outside
	// the regulator's reachable range for the given input voltage.
	ErrUnreachableOutput = errors.New("reg: output voltage unreachable from input")

	// ErrNoUsefulOutput indicates that the entire input power is consumed by
	// conversion losses, leaving nothing for the load.
	ErrNoUsefulOutput = errors.New("reg: input power fully consumed by conversion losses")
)

// Regulator is a behavioural model of a DC-DC voltage converter.
type Regulator interface {
	// Name identifies the regulator type for reports ("LDO", "SC", ...).
	Name() string

	// Efficiency returns the power efficiency (0..1] when converting from
	// input voltage vin to output voltage vout while delivering pout watts
	// to the load. It returns 0 when the point is unreachable (vout outside
	// OutputRange) or the load is non-positive.
	Efficiency(vin, vout, pout float64) float64

	// OutputRange returns the reachable output voltage range [lo, hi] for
	// the given input voltage. hi < lo means no output is reachable.
	OutputRange(vin float64) (lo, hi float64)
}

// OutputPower returns the maximum load power (W) deliverable at vout when
// the source supplies pin watts at vin. Because efficiency depends on the
// load, the relation pout/eta(pout) = pin is solved by bisection; input
// power drawn is non-decreasing in output power for all models in this
// package. It returns ErrNoUsefulOutput when losses consume the entire
// input power and ErrUnreachableOutput when vout is out of range.
func OutputPower(r Regulator, vin, vout, pin float64) (float64, error) {
	if pin <= 0 {
		return 0, ErrNoUsefulOutput
	}
	if lo, hi := r.OutputRange(vin); vout < lo || vout > hi {
		return 0, ErrUnreachableOutput
	}
	drawn := func(pout float64) float64 {
		eta := r.Efficiency(vin, vout, pout)
		if eta <= 0 {
			return math.Inf(1)
		}
		return pout / eta
	}
	// Upper bound: efficiency never exceeds 1, so pout <= pin.
	if drawn(pin) <= pin {
		return pin, nil
	}
	lo, hi := search.Bisect(0, pin, powerSolveTolerance, maxSolverIterations,
		func(pout float64) bool { return drawn(pout) <= pin })
	pout := 0.5 * (lo + hi)
	if pout <= powerSolveTolerance {
		return 0, ErrNoUsefulOutput
	}
	return pout, nil
}

// EfficiencyCurvePoint is one sample of an efficiency-vs-voltage sweep.
type EfficiencyCurvePoint struct {
	OutputVoltage float64 // (V)
	Efficiency    float64 // 0..1
}

// EfficiencyCurve samples efficiency at n output voltages evenly spaced over
// [loV, hiV] with fixed input voltage and load power, as plotted in the
// paper's Figs. 3-5. Unreachable points carry zero efficiency.
func EfficiencyCurve(r Regulator, vin, loV, hiV, pout float64, n int) []EfficiencyCurvePoint {
	if n < 2 {
		return nil
	}
	pts := make([]EfficiencyCurvePoint, n)
	for k := 0; k < n; k++ {
		v := loV + (hiV-loV)*float64(k)/float64(n-1)
		pts[k] = EfficiencyCurvePoint{
			OutputVoltage: v,
			Efficiency:    r.Efficiency(vin, v, pout),
		}
	}
	return pts
}
