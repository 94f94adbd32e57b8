package reg

// Buck models the fully integrated on-chip buck converter of the paper's
// Fig. 5 and Sec. VII (0.3-0.8 V output from a 1.2-1.5 V supply, 40-75%
// efficiency across voltage and load). The loss decomposition is the
// textbook one:
//
//	Ploss = Pq + a*Iout + R*Iout^2
//
// with Pq the controller/gate-drive quiescent power, a an equivalent
// switching-loss voltage drop per ampere, and R the lumped inductor DCR
// plus switch on-resistance. Defaults are calibrated so that at 0.55 V the
// model reports 63% at the 10 mW full load and 58% at half load, matching
// Fig. 5, with efficiency peaking near the top of the output range and
// degrading at light load (equal to or below the SC converter, as the paper
// observes).
type Buck struct {
	quiescent    float64 // Pq (W)
	switchDrop   float64 // a (V): switching loss per ampere of load
	resistance   float64 // R (ohm): conduction loss
	minOutput    float64 // lowest regulable output voltage (V)
	maxOutput    float64 // highest regulable output voltage (V)
	maxDutyRatio float64 // Vout <= maxDutyRatio * Vin

	// pfmThreshold enables pulse-frequency-modulation light-load operation
	// below this output power (W): the controller gates its switching so
	// the quiescent and per-ampere losses scale down with the load instead
	// of staying fixed. Zero disables PFM (pure PWM, as in the paper's
	// Fig. 5 characterisation).
	pfmThreshold float64
	// pfmFloor is the residual always-on power in PFM mode (W).
	pfmFloor float64
}

var _ Regulator = (*Buck)(nil)

// BuckOption configures a Buck converter.
type BuckOption func(*Buck)

// WithBuckPFM enables pulse-frequency-modulation light-load operation below
// the given output power (W), with the given residual always-on power (W).
// PFM trades switching activity for load, flattening the light-load
// efficiency collapse of the PWM-only design.
func WithBuckPFM(threshold, floor float64) BuckOption {
	return func(b *Buck) {
		b.pfmThreshold = threshold
		b.pfmFloor = floor
	}
}

// NewBuck returns a buck converter calibrated to the paper's 65 nm test
// chip.
func NewBuck(opts ...BuckOption) *Buck {
	b := &Buck{
		quiescent:    1.70e-3,
		switchDrop:   0.193,
		resistance:   2.0,
		minOutput:    0.3,
		maxOutput:    0.8,
		maxDutyRatio: 0.92,
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Name implements Regulator.
func (b *Buck) Name() string { return "Buck" }

// OutputRange implements Regulator.
func (b *Buck) OutputRange(vin float64) (lo, hi float64) {
	hi = b.maxDutyRatio * vin
	if hi > b.maxOutput {
		hi = b.maxOutput
	}
	return b.minOutput, hi
}

// Efficiency implements Regulator.
func (b *Buck) Efficiency(vin, vout, pout float64) float64 {
	if pout <= 0 || vin <= 0 || vout <= 0 {
		return 0
	}
	if lo, hi := b.OutputRange(vin); vout < lo || vout > hi {
		return 0
	}
	iout := pout / vout
	loss := b.quiescent + b.switchDrop*iout + b.resistance*iout*iout
	if b.pfmThreshold > 0 && pout < b.pfmThreshold {
		// PFM: the converter pulses only a fraction frac of the time, so
		// controller and gate-drive power scale down with the load; the
		// inductor current during a burst equals the threshold-equivalent
		// peak, which sets the conduction loss.
		frac := pout / b.pfmThreshold
		ipeak := b.pfmThreshold / vout
		loss = b.pfmFloor + frac*b.quiescent + b.switchDrop*iout + b.resistance*iout*ipeak
	}
	return pout / (pout + loss)
}
