package reg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func allRegulators() []Regulator {
	return []Regulator{NewLDO(), NewSC(), NewBuck()}
}

func TestEfficiencyBounds(t *testing.T) {
	for _, r := range allRegulators() {
		for vin := 0.6; vin <= 1.5; vin += 0.3 {
			for vout := 0.05; vout <= 1.2; vout += 0.05 {
				for _, pout := range []float64{1e-5, 1e-3, 5e-3, 10e-3, 20e-3} {
					eta := r.Efficiency(vin, vout, pout)
					if eta < 0 || eta > 1 {
						t.Fatalf("%s: eta=%g out of [0,1] at vin=%.2f vout=%.2f pout=%g",
							r.Name(), eta, vin, vout, pout)
					}
				}
			}
		}
	}
}

func TestZeroLoadZeroEfficiency(t *testing.T) {
	for _, r := range allRegulators() {
		if eta := r.Efficiency(1.2, 0.55, 0); eta != 0 {
			t.Errorf("%s: eta at zero load = %g, want 0", r.Name(), eta)
		}
		if eta := r.Efficiency(1.2, 0.55, -1e-3); eta != 0 {
			t.Errorf("%s: eta at negative load = %g, want 0", r.Name(), eta)
		}
	}
}

func TestLDOCalibration(t *testing.T) {
	l := NewLDO()
	// Fig. 3: ~45% at 0.55 V from the 1.2 V rail.
	eta := l.Efficiency(1.2, 0.55, 10e-3)
	if eta < 0.43 || eta < 0.40 || eta > 0.48 {
		t.Errorf("LDO eta(0.55 V) = %.3f, want ~0.45", eta)
	}
	// Efficiency is essentially the voltage ratio: linear in vout.
	e1 := l.Efficiency(1.2, 0.3, 10e-3)
	e2 := l.Efficiency(1.2, 0.6, 10e-3)
	if math.Abs(e2/e1-2) > 0.02 {
		t.Errorf("LDO efficiency not linear in vout: %.3f vs %.3f", e1, e2)
	}
	// Insensitive to load (Fig. 3: "does not change significantly with load").
	full := l.Efficiency(1.2, 0.55, 10e-3)
	tenth := l.Efficiency(1.2, 0.55, 1e-3)
	if math.Abs(full-tenth)/full > 0.01 {
		t.Errorf("LDO too load sensitive: %.4f vs %.4f", full, tenth)
	}
	// Dropout: cannot regulate above vin - dropout.
	if eta := l.Efficiency(0.6, 0.58, 1e-3); eta != 0 {
		t.Errorf("LDO above dropout should be unreachable, got %g", eta)
	}
}

func TestSCCalibration(t *testing.T) {
	s := NewSC()
	// Fig. 4 corners at 0.55 V from 1.2 V.
	full := s.Efficiency(1.2, 0.55, 10e-3)
	half := s.Efficiency(1.2, 0.55, 5e-3)
	if full < 0.64 || full > 0.70 {
		t.Errorf("SC full-load eta = %.3f, want ~0.67", full)
	}
	if half < 0.60 || half > 0.67 {
		t.Errorf("SC half-load eta = %.3f, want ~0.64", half)
	}
	if half >= full {
		t.Errorf("SC half load %.3f should be below full load %.3f", half, full)
	}
	// Light load collapses (drives the low-light bypass rule).
	light := s.Efficiency(1.2, 0.55, 0.3e-3)
	if light > 0.35 {
		t.Errorf("SC light-load eta = %.3f, want collapsed (<0.35)", light)
	}
}

func TestSCScallops(t *testing.T) {
	s := NewSC()
	// Efficiency peaks just below each ratio's ideal output voltage.
	vin := 1.2
	for _, k := range s.ratios {
		ideal := k * vin
		nearIdeal := s.Efficiency(vin, ideal*0.99, 10e-3)
		midScallop := s.Efficiency(vin, ideal*0.80, 10e-3)
		if nearIdeal <= midScallop {
			t.Errorf("ratio %.3f: eta near ideal %.3f <= mid-scallop %.3f", k, nearIdeal, midScallop)
		}
	}
	// Above the largest ideal output: unreachable.
	if eta := s.Efficiency(vin, 0.97, 10e-3); eta != 0 {
		t.Errorf("above max ratio output: eta = %g, want 0", eta)
	}
}

func TestSCBestRatio(t *testing.T) {
	s := NewSC()
	// At 0.55 V from 1.2 V the 2:1 ratio (k=0.5, ideal 0.6 V) must win.
	k, eta := s.BestRatio(1.2, 0.55, 10e-3)
	if k != 0.5 {
		t.Errorf("best ratio = %.3f, want 0.5", k)
	}
	if eta <= 0 {
		t.Error("zero efficiency for reachable point")
	}
	// At 0.75 V the 3:2 ratio (ideal 0.8 V) must win.
	if k, _ := s.BestRatio(1.2, 0.75, 10e-3); k != 2.0/3.0 {
		t.Errorf("best ratio at 0.75 V = %.3f, want 2/3", k)
	}
	// Unreachable.
	if k, eta := s.BestRatio(1.2, 1.1, 10e-3); k != 0 || eta != 0 {
		t.Errorf("unreachable point gave k=%g eta=%g", k, eta)
	}
}

func TestSCCustomRatios(t *testing.T) {
	s := NewSC(WithSCRatios([]float64{1.0 / 3.0, 1.0}))
	lo, hi := s.OutputRange(1.2)
	if hi != 1.2 {
		t.Errorf("hi = %g, want 1.2 with unity ratio", hi)
	}
	if lo <= 0 {
		t.Errorf("lo = %g", lo)
	}
	if k, _ := s.BestRatio(1.2, 0.35, 5e-3); k != 1.0/3.0 {
		t.Errorf("best ratio = %g, want 1/3", k)
	}
}

func TestBuckCalibration(t *testing.T) {
	b := NewBuck()
	full := b.Efficiency(1.2, 0.55, 10e-3)
	half := b.Efficiency(1.2, 0.55, 5e-3)
	if full < 0.60 || full > 0.66 {
		t.Errorf("buck full-load eta = %.3f, want ~0.63", full)
	}
	if half < 0.55 || half > 0.61 {
		t.Errorf("buck half-load eta = %.3f, want ~0.58", half)
	}
	// Sec. VII: 40-75% across voltage and loading within the output window.
	minEta, maxEta := 1.0, 0.0
	for vout := 0.3; vout <= 0.8; vout += 0.05 {
		for _, pout := range []float64{2e-3, 5e-3, 10e-3} {
			eta := b.Efficiency(1.3, vout, pout)
			if eta == 0 {
				continue
			}
			minEta = math.Min(minEta, eta)
			maxEta = math.Max(maxEta, eta)
		}
	}
	if minEta < 0.25 || maxEta > 0.85 {
		t.Errorf("buck efficiency envelope [%.2f, %.2f] out of the plausible 40-75%% band", minEta, maxEta)
	}
	// Output window honoured.
	if eta := b.Efficiency(1.2, 0.25, 5e-3); eta != 0 {
		t.Errorf("below window: eta = %g, want 0", eta)
	}
	if eta := b.Efficiency(1.2, 0.85, 5e-3); eta != 0 {
		t.Errorf("above window: eta = %g, want 0", eta)
	}
	// Duty limit binds at low input.
	if _, hi := b.OutputRange(0.6); hi >= 0.6 {
		t.Errorf("duty-limited hi = %g, want < vin", hi)
	}
}

func TestBuckBelowSCAtLightLoad(t *testing.T) {
	s, b := NewSC(), NewBuck()
	// Paper: buck "shows equal or less efficiency at low output power".
	for _, pout := range []float64{0.5e-3, 1e-3} {
		etaS := s.Efficiency(1.2, 0.55, pout)
		etaB := b.Efficiency(1.2, 0.55, pout)
		if etaB > etaS {
			t.Errorf("pout=%g: buck %.3f > SC %.3f at light load", pout, etaB, etaS)
		}
	}
}

func TestOutputPowerInvertsInputPower(t *testing.T) {
	for _, r := range []Regulator{NewLDO(), NewSC(), NewBuck()} {
		for _, pout := range []float64{1e-3, 5e-3, 10e-3} {
			vin, vout := 1.2, 0.55
			pin := pout / r.Efficiency(vin, vout, pout)
			back, err := OutputPower(r, vin, vout, pin)
			if err != nil {
				t.Fatalf("%s: %v", r.Name(), err)
			}
			if math.Abs(back-pout)/pout > 1e-4 {
				t.Errorf("%s pout=%g: round trip gave %g", r.Name(), pout, back)
			}
		}
	}
}

func TestOutputPowerErrors(t *testing.T) {
	s := NewSC()
	if _, err := OutputPower(s, 1.2, 0.55, 0); !errors.Is(err, ErrNoUsefulOutput) {
		t.Errorf("zero input: got %v", err)
	}
	if _, err := OutputPower(s, 1.2, 1.1, 5e-3); !errors.Is(err, ErrUnreachableOutput) {
		t.Errorf("unreachable vout: got %v", err)
	}
	// Input smaller than fixed losses: nothing comes out.
	if _, err := OutputPower(s, 1.2, 0.55, 1e-7); !errors.Is(err, ErrNoUsefulOutput) {
		t.Errorf("sub-loss input: got %v", err)
	}
}

func TestEfficiencyCurve(t *testing.T) {
	s := NewSC()
	pts := EfficiencyCurve(s, 1.2, 0.1, 0.9, 10e-3, 30)
	if len(pts) != 30 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].OutputVoltage != 0.1 || pts[len(pts)-1].OutputVoltage != 0.9 {
		t.Error("endpoints wrong")
	}
	if EfficiencyCurve(s, 1.2, 0.1, 0.9, 10e-3, 1) != nil {
		t.Error("n<2 should return nil")
	}
}

// Property: for every regulator, drawn input power is at least the load
// power (no free energy) whenever the point is reachable.
func TestQuickNoFreeEnergy(t *testing.T) {
	regs := allRegulators()
	f := func(ri uint8, vinRaw, voutRaw, poutRaw uint16) bool {
		r := regs[int(ri)%len(regs)]
		vin := 0.6 + float64(vinRaw)/65535*0.9
		vout := 0.05 + float64(voutRaw)/65535*1.1
		pout := 1e-5 + float64(poutRaw)/65535*20e-3
		eta := r.Efficiency(vin, vout, pout)
		if eta == 0 {
			return true
		}
		return pout/eta >= pout*(1-1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: OutputPower never returns more than the input power, and the
// implied draw matches the input within tolerance.
func TestQuickOutputPowerConsistency(t *testing.T) {
	regs := []Regulator{NewLDO(), NewSC(), NewBuck()}
	f := func(ri uint8, pinRaw uint16) bool {
		r := regs[int(ri)%len(regs)]
		pin := 1e-4 + float64(pinRaw)/65535*20e-3
		pout, err := OutputPower(r, 1.2, 0.55, pin)
		if err != nil {
			return true
		}
		if pout > pin {
			return false
		}
		eta := r.Efficiency(1.2, 0.55, pout)
		if eta <= 0 {
			return false
		}
		return math.Abs(pout/eta-pin) < 1e-3*pin+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SC and buck efficiency is non-decreasing in load power over the
// rated range (fixed losses amortise).
func TestQuickLoadMonotonicity(t *testing.T) {
	regs := []Regulator{NewSC(), NewBuck()}
	f := func(ri uint8, aRaw, bRaw uint16) bool {
		r := regs[int(ri)%len(regs)]
		a := 1e-4 + float64(aRaw)/65535*8e-3
		b := 1e-4 + float64(bRaw)/65535*8e-3
		if a > b {
			a, b = b, a
		}
		etaA := r.Efficiency(1.2, 0.55, a)
		etaB := r.Efficiency(1.2, 0.55, b)
		return etaB >= etaA-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSCEfficiency(b *testing.B) {
	s := NewSC()
	for i := 0; i < b.N; i++ {
		s.Efficiency(1.2, 0.55, 10e-3)
	}
}

func BenchmarkOutputPowerSolve(b *testing.B) {
	s := NewSC()
	for i := 0; i < b.N; i++ {
		if _, err := OutputPower(s, 1.2, 0.55, 12e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBuckPFMImprovesLightLoad(t *testing.T) {
	pwm := NewBuck()
	pfm := NewBuck(WithBuckPFM(3e-3, 50e-6))
	// At light load PFM must beat PWM substantially.
	for _, pout := range []float64{0.2e-3, 0.5e-3, 1e-3} {
		a := pwm.Efficiency(1.2, 0.55, pout)
		b := pfm.Efficiency(1.2, 0.55, pout)
		if b <= a {
			t.Errorf("pout=%g: PFM %.3f <= PWM %.3f", pout, b, a)
		}
	}
	// At and above the threshold the two coincide.
	for _, pout := range []float64{3e-3, 5e-3, 10e-3} {
		a := pwm.Efficiency(1.2, 0.55, pout)
		b := pfm.Efficiency(1.2, 0.55, pout)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("pout=%g: PFM %.6f != PWM %.6f above threshold", pout, b, a)
		}
	}
	// Efficiency stays within bounds and monotone in load below threshold.
	prev := 0.0
	for pout := 1e-5; pout < 3e-3; pout += 1e-5 {
		eta := pfm.Efficiency(1.2, 0.55, pout)
		if eta < 0 || eta > 1 {
			t.Fatalf("PFM eta out of range: %g at %g", eta, pout)
		}
		if eta < prev-1e-9 {
			t.Fatalf("PFM eta not monotone at %g", pout)
		}
		prev = eta
	}
}

func TestNamesAndOptions(t *testing.T) {
	if NewLDO().Name() != "LDO" || NewSC().Name() != "SC" || NewBuck().Name() != "Buck" {
		t.Error("regulator names wrong")
	}
	// LDO parameters shape the model as documented.
	l := &LDO{dropout: 0.2, quiescent: 1e-3, minOutput: 0.1}
	if _, hi := l.OutputRange(1.0); hi != 0.8 {
		t.Errorf("dropout not honoured: hi=%g", hi)
	}
	// A huge quiescent current visibly dents light-load efficiency.
	if eta := l.Efficiency(1.2, 0.55, 0.5e-3); eta > 0.25 {
		t.Errorf("1 mA quiescent should crush light-load LDO efficiency, got %.3f", eta)
	}
	// SC loss parameters: doubling the fixed loss lowers the light-load corner.
	lossy := NewSC()
	lossy.fixedLoss *= 2
	if a, b := lossy.Efficiency(1.2, 0.55, 1e-3), NewSC().Efficiency(1.2, 0.55, 1e-3); a >= b {
		t.Errorf("doubled fixed loss did not lower efficiency: %.3f vs %.3f", a, b)
	}
	// Buck parameters.
	bq := NewBuck()
	bq.quiescent, bq.switchDrop, bq.resistance, bq.minOutput, bq.maxOutput = 5e-3, 0.4, 10, 0.2, 0.9
	if lo, hi := bq.OutputRange(1.5); lo != 0.2 || hi != 0.9 {
		t.Errorf("buck output window not honoured: [%g, %g]", lo, hi)
	}
	if a, b := bq.Efficiency(1.2, 0.55, 5e-3), NewBuck().Efficiency(1.2, 0.55, 5e-3); a >= b {
		t.Errorf("lossier buck not less efficient: %.3f vs %.3f", a, b)
	}
}
