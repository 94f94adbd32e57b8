package cap

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, c, v0, vmax float64) *Capacitor {
	t.Helper()
	cp, err := New(c, v0, vmax)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 2); !errors.Is(err, ErrInvalidCapacitance) {
		t.Errorf("zero C: got %v", err)
	}
	if _, err := New(-1e-6, 1, 2); !errors.Is(err, ErrInvalidCapacitance) {
		t.Errorf("negative C: got %v", err)
	}
	if _, err := New(1e-6, 3, 2); !errors.Is(err, ErrVoltageOutOfRange) {
		t.Errorf("over-voltage: got %v", err)
	}
	if _, err := New(1e-6, -0.1, 2); !errors.Is(err, ErrVoltageOutOfRange) {
		t.Errorf("negative voltage: got %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []float64{nan, inf, -inf} {
		if _, err := New(c, 1, 2); !errors.Is(err, ErrInvalidCapacitance) {
			t.Errorf("C=%g: got %v, want ErrInvalidCapacitance", c, err)
		}
	}
	for _, v := range [][2]float64{{nan, 2}, {1, nan}, {nan, nan}, {inf, 2}, {-inf, 2}, {1, inf}, {inf, inf}, {1, -inf}} {
		if _, err := New(1e-6, v[0], v[1]); !errors.Is(err, ErrVoltageOutOfRange) {
			t.Errorf("v0=%g max=%g: got %v, want ErrVoltageOutOfRange", v[0], v[1], err)
		}
	}
}

func TestAccessors(t *testing.T) {
	c := mustNew(t, 100e-6, 1.2, 2.0)
	if c.Capacitance() != 100e-6 || c.Voltage() != 1.2 {
		t.Errorf("accessors: %g %g", c.Capacitance(), c.Voltage())
	}
}

func TestEnergy(t *testing.T) {
	c := mustNew(t, 100e-6, 1.0, 2.0)
	if got, want := c.Energy(), 0.5*100e-6; math.Abs(got-want) > 1e-15 {
		t.Errorf("energy = %g, want %g", got, want)
	}
	if got, want := c.EnergyBetween(1.2, 0.6), 0.5*100e-6*(1.44-0.36); math.Abs(got-want) > 1e-15 {
		t.Errorf("energy between = %g, want %g", got, want)
	}
	if c.EnergyBetween(0.5, 1.0) >= 0 {
		t.Error("inverted interval should be negative")
	}
}

func TestApplyCurrentIntegration(t *testing.T) {
	c := mustNew(t, 100e-6, 1.0, 2.0)
	// Constant 1 mA for 10 ms: dV = I*t/C = 0.1 V.
	for i := 0; i < 1000; i++ {
		c.ApplyCurrent(1e-3, 10e-6)
	}
	if math.Abs(c.Voltage()-1.1) > 1e-9 {
		t.Errorf("voltage = %.6f, want 1.1", c.Voltage())
	}
}

func TestApplyCurrentClamps(t *testing.T) {
	c := mustNew(t, 1e-6, 1.9, 2.0)
	c.ApplyCurrent(1, 1e-3) // would add 1000 V
	if c.Voltage() != 2.0 {
		t.Errorf("over-charge: %g, want clamp at 2.0", c.Voltage())
	}
	c.ApplyCurrent(-1, 1e-3)
	if c.Voltage() != 0 {
		t.Errorf("over-discharge: %g, want clamp at 0", c.Voltage())
	}
}

// Property: charge conservation — any sequence of current steps lands at
// V0 + sum(I*dt)/C when no clamp engages.
func TestQuickChargeConservation(t *testing.T) {
	f := func(steps []int8) bool {
		c, err := New(100e-6, 1.0, 1e6)
		if err != nil {
			return false
		}
		expected := 1.0
		for _, s := range steps {
			i := float64(s) * 1e-4 // up to +-12.8 mA
			c.ApplyCurrent(i, 1e-5)
			expected += i * 1e-5 / 100e-6
			if expected < 0 {
				expected = 0 // clamp mirrors the model
			}
		}
		return math.Abs(c.Voltage()-expected) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: energy is always non-negative and consistent with voltage.
func TestQuickEnergyConsistency(t *testing.T) {
	f := func(vRaw uint16) bool {
		v := float64(vRaw) / 65535 * 2.0
		c, err := New(47e-6, v, 2.0)
		if err != nil {
			return false
		}
		return math.Abs(c.Energy()-0.5*47e-6*v*v) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkApplyCurrent(b *testing.B) {
	c, err := New(100e-6, 1.0, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		c.ApplyCurrent(1e-6, 1e-6)
	}
}

func TestLeakageSelfDischarge(t *testing.T) {
	// 100 uF with 100 kohm leakage: tau = 10 s; after 1 s the voltage
	// should fall to ~exp(-0.1) = 90.5% of the start.
	c, err := New(100e-6, 1.0, 2.0, WithLeakage(100e3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		c.ApplyCurrent(0, 1e-4)
	}
	want := math.Exp(-0.1)
	if math.Abs(c.Voltage()-want) > 2e-3 {
		t.Errorf("voltage after 1 s = %.4f, want ~%.4f", c.Voltage(), want)
	}
	// An ideal capacitor holds its charge.
	ideal, err := New(100e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ideal.ApplyCurrent(0, 1e-4)
	}
	if ideal.Voltage() != 1.0 {
		t.Errorf("ideal capacitor drifted to %g", ideal.Voltage())
	}
}
