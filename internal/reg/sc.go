package reg

// SC models the reconfigurable switched-capacitor converter of the paper's
// Fig. 4 with step-down ratios 5:4, 3:2 and 2:1. Within one configuration
// of ratio k the converter behaves like an LDO referenced to the ideal
// output k*Vin: the intrinsic (charge-sharing) efficiency is
//
//	eta_lin = Vout / (k * Vin),
//
// and on top of that the switching activity costs a fixed overhead power
// plus a loss proportional to the transferred power (bottom-plate and gate
// capacitance), so
//
//	eta = eta_lin * Pout / (Pout*(1+cBP) + Pfixed).
//
// The converter always selects the reachable ratio with the best efficiency
// for the requested output voltage, producing the characteristic scalloped
// efficiency-vs-voltage curve. Defaults are calibrated so that at
// Vin = 1.2 V and Vout = 0.55 V the model reports 67% at the 10 mW full
// load and 64% at half load, matching Fig. 4, while light loads collapse
// toward zero efficiency, which drives the paper's low-light bypass rule.
type SC struct {
	ratios      []float64 // step-down fractions k (ideal Vout = k*Vin)
	fixedLoss   float64   // Pfixed: load-independent switching power (W)
	bottomPlate float64   // cBP: loss proportional to output power
	minOutput   float64   // lowest regulable output voltage (V)
	topRatio    float64   // the largest ratio (0 with none), derived by NewSC
}

var _ Regulator = (*SC)(nil)

// SCOption configures an SC converter.
type SCOption func(*SC)

// WithSCRatios sets the available step-down fractions (each in (0, 1]).
// The slice is copied.
func WithSCRatios(ratios []float64) SCOption {
	return func(s *SC) {
		s.ratios = append([]float64(nil), ratios...)
	}
}

// NewSC returns an SC converter calibrated to the paper's 65 nm
// implementation (ratios 5:4, 3:2, 2:1).
func NewSC(opts ...SCOption) *SC {
	s := &SC{
		ratios:      []float64{4.0 / 5.0, 2.0 / 3.0, 1.0 / 2.0},
		fixedLoss:   0.80e-3,
		bottomPlate: 0.288,
		minOutput:   0.1,
	}
	for _, opt := range opts {
		opt(s)
	}
	for _, k := range s.ratios {
		if k > s.topRatio {
			s.topRatio = k
		}
	}
	return s
}

// Name implements Regulator.
func (s *SC) Name() string { return "SC" }

// OutputRange implements Regulator. The highest reachable output is the
// largest ratio's ideal output (minus nothing: the charge-sharing model lets
// Vout approach k*Vin with efficiency approaching eta at eta_lin -> 1).
func (s *SC) OutputRange(vin float64) (lo, hi float64) {
	return s.minOutput, s.topRatio * vin
}

// BestRatio returns the step-down fraction the converter selects for the
// given conversion point and the resulting efficiency. A ratio is reachable
// when its ideal output k*Vin is at or above the requested vout; among
// reachable ratios the one with the highest overall efficiency wins (for
// this loss model that is the smallest reachable k). It returns 0, 0 when
// no ratio is reachable.
func (s *SC) BestRatio(vin, vout, pout float64) (ratio, efficiency float64) {
	for _, k := range s.ratios {
		ideal := k * vin
		if ideal < vout {
			continue
		}
		eta := s.ratioEfficiency(ideal, vout, pout)
		if eta > efficiency {
			ratio, efficiency = k, eta
		}
	}
	return ratio, efficiency
}

// ratioEfficiency evaluates the loss model for one configuration with ideal
// (no-load) output voltage `ideal`.
func (s *SC) ratioEfficiency(ideal, vout, pout float64) float64 {
	if pout <= 0 || vout <= 0 || ideal <= 0 || vout > ideal {
		return 0
	}
	linear := vout / ideal
	return linear * pout / (pout*(1+s.bottomPlate) + s.fixedLoss)
}

// Efficiency implements Regulator.
func (s *SC) Efficiency(vin, vout, pout float64) float64 {
	if pout <= 0 || vin <= 0 || vout < s.minOutput {
		return 0
	}
	_, eta := s.BestRatio(vin, vout, pout)
	return eta
}
