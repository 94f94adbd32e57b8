package reg

// LDO models a low-dropout linear regulator (paper Fig. 3). Its efficiency
// is fundamentally the voltage division ratio,
//
//	eta = (Vout/Vin) * Iload/(Iload + Iq),
//
// where Iq is the quiescent current of the error amplifier and pass-device
// bias. With the chip's 1.2 V supply this yields ~45% at 0.55 V, matching
// the figure, and efficiency changes little with load.
type LDO struct {
	dropout   float64 // minimum Vin-Vout headroom (V)
	quiescent float64 // quiescent current Iq (A)
	minOutput float64 // lowest regulable output voltage (V)
}

var _ Regulator = (*LDO)(nil)

// NewLDO returns an LDO calibrated to the paper's 65 nm implementation.
func NewLDO() *LDO {
	return &LDO{
		dropout:   0.05,
		quiescent: 8e-6,
		minOutput: 0.1,
	}
}

// Name implements Regulator.
func (l *LDO) Name() string { return "LDO" }

// OutputRange implements Regulator.
func (l *LDO) OutputRange(vin float64) (lo, hi float64) {
	return l.minOutput, vin - l.dropout
}

// Efficiency implements Regulator.
func (l *LDO) Efficiency(vin, vout, pout float64) float64 {
	if pout <= 0 || vin <= 0 || vout <= 0 {
		return 0
	}
	if lo, hi := l.OutputRange(vin); vout < lo || vout > hi {
		return 0
	}
	iload := pout / vout
	return (vout / vin) * iload / (iload + l.quiescent)
}
