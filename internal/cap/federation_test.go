package cap

import (
	"math"
	"testing"
)

func mustFed(t *testing.T, sizes []float64) *Federation {
	t.Helper()
	var members []*Capacitor
	for _, c := range sizes {
		m, err := New(c, 0, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	f, err := NewFederation(members)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFederationValidation(t *testing.T) {
	if _, err := NewFederation(nil); err == nil {
		t.Error("empty federation accepted")
	}
}

func TestFederationColdStartFasterThanMonolith(t *testing.T) {
	// Charge from empty at a constant 2 mA. The federation's small lead
	// member reaches a usable 0.6 V far sooner than a monolithic capacitor
	// of the same total capacitance.
	const (
		current = 2e-3
		dt      = 1e-5
		usable  = 0.6
	)
	timeTo := func(s interface {
		Voltage() float64
		ApplyCurrent(float64, float64) float64
	}) float64 {
		for step := 0; step < 10_000_000; step++ {
			if s.ApplyCurrent(current, dt) >= usable {
				return float64(step) * dt
			}
		}
		return math.Inf(1)
	}
	mono, err := New(300e-6, 0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	fed := mustFed(t, []float64{10e-6, 290e-6})
	tMono := timeTo(mono)
	tFed := timeTo(fed)
	if tFed >= tMono/10 {
		t.Errorf("federation cold start %.4g s, monolith %.4g s; want >10x faster", tFed, tMono)
	}
}

func TestFederationBanksSurplusIntoLargerMember(t *testing.T) {
	f := mustFed(t, []float64{10e-6, 100e-6})
	f.fullAt = 1.0
	// Charge until the small member fills and the selector advances.
	for i := 0; i < 200000 && f.active == 0; i++ {
		f.ApplyCurrent(2e-3, 1e-5)
	}
	if f.active != 1 {
		t.Fatal("selector never advanced to the large member")
	}
	if small := f.members[0]; small.Voltage() < 1.0-1e-6 {
		t.Errorf("small member handed off at %.3f V, want ~1.0 V", small.Voltage())
	}
	// Node capacitance now reflects the large member.
	if f.Capacitance() != 100e-6 {
		t.Errorf("node capacitance %g, want the active member's", f.Capacitance())
	}
}

func TestFederationFallsBackToBankedEnergy(t *testing.T) {
	small, err := New(10e-6, 0.35, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(100e-6, 1.2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFederation([]*Capacitor{small, big})
	if err != nil {
		t.Fatal(err)
	}
	f.fullAt = 1.4
	// Discharge: the small active member drains to the floor, then the
	// selector pulls in the charged big member and the node voltage jumps.
	var switched bool
	for i := 0; i < 100000; i++ {
		v := f.ApplyCurrent(-1e-3, 1e-5)
		if f.active == 1 {
			switched = true
			if v < 1.0 {
				t.Fatalf("fallback landed at %.3f V, want the banked ~1.2 V", v)
			}
			break
		}
	}
	if !switched {
		t.Fatal("selector never fell back to the banked member")
	}
}

func TestFederationSingleMemberDegeneratesToCapacitor(t *testing.T) {
	f := mustFed(t, []float64{47e-6})
	f.ApplyCurrent(1e-3, 1e-3) // dV = 1e-6/47e-6 ~ 21.3 mV
	want := 1e-3 * 1e-3 / 47e-6
	if math.Abs(f.Voltage()-want) > 1e-9 {
		t.Errorf("voltage = %g, want %g", f.Voltage(), want)
	}
}
