// Package cap models the storage capacitor that replaces the battery in the
// paper's battery-less system. The capacitor sits at the solar-cell output
// node; its voltage is the state variable integrated by the transient
// simulator and observed by the comparator bank for MPP tracking.
//
// All quantities use SI units: volts, amps, watts, farads, joules, seconds.
package cap

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by this package.
var (
	// ErrInvalidCapacitance indicates a capacitance that is not positive
	// and finite.
	ErrInvalidCapacitance = errors.New("cap: capacitance must be positive and finite")

	// ErrVoltageOutOfRange indicates an initial voltage outside the
	// capacitor's rated range, or a rated maximum that is not finite.
	ErrVoltageOutOfRange = errors.New("cap: voltage out of rated range")
)

// Capacitor is a storage capacitor with a rated voltage window and,
// optionally, a leakage (self-discharge) resistance. Construct with New;
// the zero value is not useful.
type Capacitor struct {
	capacitance float64 // C (F)
	voltage     float64 // current terminal voltage (V)
	maxVoltage  float64 // rated maximum voltage (V)
	leakage     float64 // self-discharge resistance (ohm); 0 = none
}

// Option configures capacitor non-idealities.
type Option func(*Capacitor)

// WithLeakage sets a parallel self-discharge resistance (ohm); the
// capacitor loses V/R of current every integration step.
func WithLeakage(ohms float64) Option {
	return func(c *Capacitor) { c.leakage = ohms }
}

// New returns a capacitor of the given capacitance (F) pre-charged to the
// given voltage (V), with the given rated maximum voltage.
func New(capacitance, initialVoltage, maxVoltage float64, opts ...Option) (*Capacitor, error) {
	// Written so NaN fails every check.
	if !(capacitance > 0) || math.IsInf(capacitance, 1) {
		return nil, fmt.Errorf("%w: got %g F", ErrInvalidCapacitance, capacitance)
	}
	if !(0 <= initialVoltage && initialVoltage <= maxVoltage) || math.IsInf(maxVoltage, 1) {
		return nil, fmt.Errorf("%w: got %g V with max %g V", ErrVoltageOutOfRange, initialVoltage, maxVoltage)
	}
	c := &Capacitor{
		capacitance: capacitance,
		voltage:     initialVoltage,
		maxVoltage:  maxVoltage,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Capacitance returns C (F).
func (c *Capacitor) Capacitance() float64 { return c.capacitance }

// Voltage returns the current terminal voltage (V).
func (c *Capacitor) Voltage() float64 { return c.voltage }

// Leakage returns the self-discharge resistance (ohm); 0 means none.
func (c *Capacitor) Leakage() float64 { return c.leakage }

// Energy returns the stored energy 1/2*C*V^2 (J).
func (c *Capacitor) Energy() float64 {
	return 0.5 * c.capacitance * c.voltage * c.voltage
}

// EnergyBetween returns the energy (J) released when the voltage drops from
// vHigh to vLow: 1/2*C*(vHigh^2 - vLow^2). Negative if vHigh < vLow.
func (c *Capacitor) EnergyBetween(vHigh, vLow float64) float64 {
	return 0.5 * c.capacitance * (vHigh*vHigh - vLow*vLow)
}

// ApplyCurrent integrates a net charging current (A, positive charges the
// capacitor) over dt seconds: dV = I*dt/C, minus self-discharge when a
// leakage resistance is configured. The voltage clamps to [0, MaxVoltage];
// charge pushed beyond the rails is discarded, modelling a shunt protection
// clamp. It returns the new voltage.
func (c *Capacitor) ApplyCurrent(current, dt float64) float64 {
	if c.leakage > 0 {
		current -= c.voltage / c.leakage
	}
	c.voltage += current * dt / c.capacitance
	if c.voltage < 0 {
		c.voltage = 0
	}
	if c.voltage > c.maxVoltage {
		c.voltage = c.maxVoltage
	}
	return c.voltage
}
