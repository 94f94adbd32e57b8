package pv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultCalibration(t *testing.T) {
	c := NewCell()
	voc := c.OpenCircuitVoltage(FullSun)
	if voc < 1.3 || voc > 1.5 {
		t.Errorf("Voc at full sun = %.3f V, want ~1.4 V", voc)
	}
	isc := c.ShortCircuitCurrent(FullSun)
	if isc < 14e-3 || isc > 17e-3 {
		t.Errorf("Isc at full sun = %.2f mA, want ~16 mA", isc*1e3)
	}
	v, p := c.MPP(FullSun)
	if v < 0.9 || v > 1.2 {
		t.Errorf("MPP voltage = %.3f V, want ~1.0-1.1 V", v)
	}
	if p < 12e-3 || p > 17e-3 {
		t.Errorf("MPP power = %.2f mW, want ~13-16 mW", p*1e3)
	}
	// Fill factor of a healthy single-diode cell.
	ff := p / (voc * isc)
	if ff < 0.55 || ff > 0.85 {
		t.Errorf("fill factor = %.3f, want 0.55-0.85", ff)
	}
}

func TestCurrentDecreasesWithVoltage(t *testing.T) {
	c := NewCell()
	for _, irr := range []float64{FullSun, HalfSun, QuarterSun, IndoorBright} {
		prev := math.Inf(1)
		for v := 0.0; v <= 1.5; v += 0.01 {
			i := c.Current(v, irr)
			if i > prev+1e-12 {
				t.Fatalf("current not non-increasing at V=%.2f irr=%.2f: %.6g > %.6g", v, irr, i, prev)
			}
			prev = i
		}
	}
}

func TestCurrentScalesWithIrradiance(t *testing.T) {
	c := NewCell()
	for v := 0.0; v < 0.8; v += 0.1 {
		hi := c.Current(v, FullSun)
		lo := c.Current(v, HalfSun)
		if lo >= hi {
			t.Errorf("current at V=%.1f: half sun %.4g >= full sun %.4g", v, lo, hi)
		}
	}
}

func TestOpenCircuitVoltageDropsWithLight(t *testing.T) {
	c := NewCell()
	prev := math.Inf(1)
	for _, irr := range []float64{FullSun, HalfSun, QuarterSun, IndoorBright, IndoorDim} {
		voc := c.OpenCircuitVoltage(irr)
		if voc >= prev {
			t.Errorf("Voc at irr=%.3f is %.3f, not below %.3f", irr, voc, prev)
		}
		if math.Abs(c.Current(voc, irr)) > 1e-4 {
			t.Errorf("current at Voc(irr=%.3f) = %.3g, want ~0", irr, c.Current(voc, irr))
		}
		prev = voc
	}
}

// Voc's bisection is capped like every other solver in the package, so an
// irradiance whose photocurrent overflows returns instead of bisecting an
// infinite bracket forever. Both +Inf and MaxFloat64 overflow the
// photocurrent, and Voc reads +Inf.
func TestOpenCircuitVoltageTerminatesOnHugeIrradiance(t *testing.T) {
	c := NewCell()
	done := make(chan [2]float64, 1)
	go func() {
		done <- [2]float64{c.OpenCircuitVoltage(math.Inf(1)), c.OpenCircuitVoltage(math.MaxFloat64)}
	}()
	select {
	case v := <-done:
		if !math.IsInf(v[0], 1) || !math.IsInf(v[1], 1) {
			t.Errorf("Voc(+Inf), Voc(MaxFloat64) = %g, %g, want +Inf", v[0], v[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OpenCircuitVoltage did not return on +Inf or MaxFloat64 irradiance")
	}
}

func TestMPPIsActuallyMaximal(t *testing.T) {
	c := NewCell()
	for _, irr := range []float64{FullSun, HalfSun, QuarterSun, IndoorBright} {
		vm, pm := c.MPP(irr)
		voc := c.OpenCircuitVoltage(irr)
		for k := 0; k <= 200; k++ {
			v := voc * float64(k) / 200
			if p := c.Power(v, irr); p > pm+1e-9 {
				t.Fatalf("irr=%.2f: power %.6g at V=%.3f exceeds MPP %.6g at V=%.3f", irr, p, v, pm, vm)
			}
		}
	}
}

func TestMPPPowerScalesSublinearlyWithLight(t *testing.T) {
	c := NewCell()
	_, pFull := c.MPP(FullSun)
	_, pHalf := c.MPP(HalfSun)
	// Half the light must give less than ~55% of the power but more than 40%.
	ratio := pHalf / pFull
	if ratio < 0.40 || ratio > 0.55 {
		t.Errorf("P(half)/P(full) = %.3f, want 0.40-0.55", ratio)
	}
}

func TestPowerNonNegative(t *testing.T) {
	c := NewCell()
	for v := -0.1; v < 2.0; v += 0.05 {
		if p := c.Power(v, HalfSun); p < 0 {
			t.Errorf("negative power %.3g at V=%.2f", p, v)
		}
	}
	if p := c.Power(0.5, 0); p != 0 {
		t.Errorf("power in darkness = %g, want 0", p)
	}
	if p := c.Power(0.5, -1); p != 0 {
		t.Errorf("power at negative irradiance = %g, want 0", p)
	}
}

func TestOperatingPointResistiveLoad(t *testing.T) {
	c := NewCell()
	// Resistive load line I = V/R intersects the curve exactly once.
	for _, r := range []float64{20.0, 50.0, 100.0, 500.0} {
		load := func(v float64) float64 { return v / r }
		v, err := c.OperatingPoint(FullSun, load)
		if err != nil {
			t.Fatalf("R=%g: %v", r, err)
		}
		supply := c.Current(v, FullSun)
		demand := load(v)
		if math.Abs(supply-demand) > 1e-4 {
			t.Errorf("R=%g: supply %.4g != demand %.4g at V=%.3f", r, supply, demand, v)
		}
	}
}

func TestOperatingPointOverload(t *testing.T) {
	c := NewCell()
	load := func(float64) float64 { return 1.0 } // 1 A: far beyond the cell
	if _, err := c.OperatingPoint(FullSun, load); err == nil {
		t.Fatal("want error for overload, got none")
	}
}

func TestOperatingPointNoLoadFloatsAtVoc(t *testing.T) {
	c := NewCell()
	v, err := c.OperatingPoint(FullSun, func(float64) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	voc := c.OpenCircuitVoltage(FullSun)
	if math.Abs(v-voc) > 1e-3 {
		t.Errorf("unloaded node at %.4f V, want Voc %.4f V", v, voc)
	}
}

func TestOperatingPointInvalidIrradiance(t *testing.T) {
	c := NewCell()
	if _, err := c.OperatingPoint(0, func(float64) float64 { return 0 }); err == nil {
		t.Fatal("want error for zero irradiance")
	}
}

func TestCurve(t *testing.T) {
	c := NewCell()
	pts := c.Curve(FullSun, 50)
	if len(pts) != 50 {
		t.Fatalf("got %d points, want 50", len(pts))
	}
	if pts[0].Voltage != 0 {
		t.Errorf("first point voltage = %g, want 0", pts[0].Voltage)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.Current) > 1e-4 {
		t.Errorf("current at final (Voc) point = %.3g, want ~0", last.Current)
	}
	for _, p := range pts {
		if p.Power < 0 || math.Abs(p.Power-p.Voltage*p.Current) > 1e-12 {
			t.Errorf("inconsistent point %+v", p)
		}
	}
	if c.Curve(FullSun, 1) != nil {
		t.Error("Curve with n<2 should return nil")
	}
	if c.Curve(0, 10) != nil {
		t.Error("Curve with zero irradiance should return nil")
	}
}

// TestCurveMatchesScalar is the walking-state differential: every point of
// a curve, solved with one SolverState carried from point to
// point, must equal the clamped stateless Current at the same voltage, bit
// for bit, for random calibrations, irradiances and grid sizes.
func TestCurveMatchesScalar(t *testing.T) {
	bits := func(p Point) [3]uint64 {
		return [3]uint64{math.Float64bits(p.Voltage), math.Float64bits(p.Current), math.Float64bits(p.Power)}
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		c := NewCell()
		if trial > 0 {
			c = randomSolverCell(rng)
		}
		irr := math.Pow(10, -3*rng.Float64())
		voc := c.OpenCircuitVoltage(irr)
		for _, n := range []int{2, 7, 64, 1000} {
			for k, got := range c.Curve(irr, n) {
				v := voc * float64(k) / float64(n-1)
				i := c.Current(v, irr)
				if i < 0 {
					i = 0
				}
				if want := (Point{Voltage: v, Current: i, Power: v * i}); bits(got) != bits(want) {
					t.Fatalf("trial %d n=%d point %d: got %+v, want %+v", trial, n, k, got, want)
				}
			}
		}
	}
}

func TestOptions(t *testing.T) {
	c := NewCell(
		WithPhotoCurrent(8e-3),
		WithIdealityFactor(1.2),
		WithSeriesCells(2),
		WithSeriesResistance(0),
		WithShuntResistance(1e4),
		WithSaturationCurrent(1e-9),
	)
	if got := c.ShortCircuitCurrent(FullSun); math.Abs(got-8e-3) > 0.2e-3 {
		t.Errorf("Isc = %.3g, want ~8 mA", got)
	}
	// Voc for these parameters: 2*1.2*VT*ln(8e-3/1e-9 + 1).
	want := 2 * 1.2 * 0.02585 * math.Log(8e-3/1e-9+1)
	if got := c.OpenCircuitVoltage(FullSun); math.Abs(got-want) > 5e-3 {
		t.Errorf("Voc = %.4f, want %.4f", got, want)
	}
}

func TestZeroSeriesResistanceConsistency(t *testing.T) {
	// With Rs=0 the implicit and explicit solutions must agree; compare a
	// tiny-Rs cell against the closed form.
	explicit := NewCell(WithSeriesResistance(0))
	implicit := NewCell(WithSeriesResistance(1e-9))
	for v := 0.0; v < 1.4; v += 0.05 {
		a := explicit.Current(v, FullSun)
		b := implicit.Current(v, FullSun)
		if math.Abs(a-b) > 1e-6 {
			t.Errorf("V=%.2f: explicit %.8g vs implicit %.8g", v, a, b)
		}
	}
}

// Property: harvested power never exceeds the irradiance-scaled photovoltaic
// limit Iph*V, and current is bounded by Isc.
func TestQuickPowerBounds(t *testing.T) {
	c := NewCell()
	f := func(vRaw, irrRaw uint16) bool {
		v := float64(vRaw) / 65535 * 1.5
		irr := 0.01 + float64(irrRaw)/65535*0.99
		i := c.Current(v, irr)
		isc := c.ShortCircuitCurrent(irr)
		if i > isc+1e-9 {
			return false
		}
		return c.Power(v, irr) <= v*isc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the MPP voltage always lies strictly inside (0, Voc).
func TestQuickMPPInterior(t *testing.T) {
	f := func(irrRaw uint16) bool {
		irr := 0.02 + float64(irrRaw)/65535*0.98
		c := NewCell()
		v, p := c.MPP(irr)
		voc := c.OpenCircuitVoltage(irr)
		return v > 0 && v < voc && p > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: more light never harvests less at the same voltage (below Voc of
// the dimmer condition).
func TestQuickIrradianceMonotonicity(t *testing.T) {
	c := NewCell()
	f := func(vRaw, aRaw, bRaw uint16) bool {
		irrA := 0.05 + float64(aRaw)/65535*0.95
		irrB := 0.05 + float64(bRaw)/65535*0.95
		if irrA > irrB {
			irrA, irrB = irrB, irrA
		}
		vocA := c.OpenCircuitVoltage(irrA)
		v := float64(vRaw) / 65535 * vocA
		return c.Power(v, irrB) >= c.Power(v, irrA)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCurrent(b *testing.B) {
	c := NewCell()
	for i := 0; i < b.N; i++ {
		c.Current(0.7, FullSun)
	}
}

func BenchmarkMPP(b *testing.B) {
	c := NewCell()
	for i := 0; i < b.N; i++ {
		c.MPP(FullSun)
	}
}
