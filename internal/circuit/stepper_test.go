package circuit

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

// TestStepCountExactMultiples is the regression test for the FP overshoot
// bug: int(math.Ceil(maxTime/step)) ordered an extra step whenever the
// division landed a few ulps above an exact multiple (10/0.001 =
// 10000.000000000002 -> 10001 steps). Every pair here is an exact multiple
// in real arithmetic and must produce exactly the integer quotient.
func TestStepCountExactMultiples(t *testing.T) {
	cases := []struct {
		maxTime, step float64
		want          int
	}{
		{10, 0.001, 10000}, // the motivating case: Ceil gives 10001
		{1, 1e-3, 1000},
		{8, 20e-6, 400000},        // ext-weather geometry
		{52e-3, 2e-6, 26000},      // fig9b/fig11b geometry
		{2000 * 5e-6, 5e-6, 2000}, // BenchmarkCircuitStep geometry
		{0.3, 0.1, 3},             // 0.3/0.1 = 2.9999999999999996
		{800e-3, 2e-6, 400000},    // ext-intermittent geometry
		{60e-3, 2e-6, 30000},      // fig8 geometry
		{604800, 1e-3, 604800000}, // a week of milliseconds
		{7 * 1e-3, 1e-3, 7},
	}
	for _, tc := range cases {
		if got := stepCount(tc.maxTime, tc.step); got != tc.want {
			t.Errorf("stepCount(%g, %g) = %d, want %d (quotient %v)",
				tc.maxTime, tc.step, got, tc.want, tc.maxTime/tc.step)
		}
	}
}

// TestStepCountProperty: for any integer n and positive step, a horizon
// built as n*step must yield exactly n steps, and a genuinely fractional
// horizon must still round up.
func TestStepCountProperty(t *testing.T) {
	exact := func(n uint16, stepSeed uint32) bool {
		steps := int(n%10000) + 1
		step := 1e-6 * (1 + float64(stepSeed%997)/7.0)
		return stepCount(float64(steps)*step, step) == steps
	}
	if err := quick.Check(exact, nil); err != nil {
		t.Errorf("exact multiples: %v", err)
	}
	fractional := func(n uint16, frac uint8) bool {
		steps := int(n%10000) + 1
		f := 0.1 + 0.8*float64(frac)/255.0 // fractional part well clear of 0 and 1
		const step = 1e-3
		return stepCount((float64(steps)+f)*step, step) == steps+1
	}
	if err := quick.Check(fractional, nil); err != nil {
		t.Errorf("fractional horizons: %v", err)
	}
}

// stepperTestConfig builds a run that exercises the interesting paths:
// comparators, clock quantisation, an aux load, and a job budget.
func stepperTestConfig(t testing.TB, withJob bool) Config {
	t.Helper()
	storage, err := cap.New(100e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cell:        pv.NewCell(),
		Proc:        cpu.NewProcessor(),
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  RampIrradiance(0.8, 0.05, 2e-3, 6e-3),
		Controller:  &FixedPoint{Supply: 0.5},
		Comparators: []Comparator{{Threshold: 0.9, Hysteresis: 0.02}},
		AuxLoad:     func(t float64) float64 { return 0.5e-3 },
		ClockLevels: []float64{10e6, 20e6, 40e6, 80e6},
		Step:        5e-6,
		MaxTime:     10e-3,
		TraceEvery:  7,
	}
	if withJob {
		cfg.JobCycles = 1e5
	}
	return cfg
}

// TestStepperMatchesRun pins the stepper refactor's core contract: a run
// advanced in arbitrary StepTo increments produces an Outcome (waveform
// samples included) deep-equal to a single monolithic Run — bit for bit,
// since DeepEqual on float64 fields is exact equality.
func TestStepperMatchesRun(t *testing.T) {
	for _, withJob := range []bool{false, true} {
		ref, err := New(stepperTestConfig(t, withJob))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}

		stepped, err := New(stepperTestConfig(t, withJob))
		if err != nil {
			t.Fatal(err)
		}
		if err := stepped.Init(); err != nil {
			t.Fatal(err)
		}
		// Ragged, non-multiple increments plus a far-past-horizon epoch.
		for _, tEdge := range []float64{1e-3, 1.2e-3, 3.7e-3, 3.7e-3, 9e-3, 1.0} {
			if _, err := stepped.StepTo(tEdge); err != nil {
				t.Fatal(err)
			}
		}
		if !stepped.Done() {
			t.Fatal("stepper not done after stepping past the horizon")
		}
		got := stepped.Outcome()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("withJob=%v: stepped outcome differs from Run:\n got %+v\nwant %+v", withJob, got, want)
		}
	}
}

// TestStepToBoundariesAgreeWithRun checks that StepTo's step-boundary
// arithmetic matches the total budget's: advancing epoch by epoch over
// exact multiples of Step executes exactly the budgeted number of steps,
// never one more or less.
func TestStepToBoundariesAgreeWithRun(t *testing.T) {
	cfg := stepperTestConfig(t, false)
	cfg.MaxTime = 10 * 1e-3 // 2000 steps of 5e-6, an exact multiple
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 1e-3 // 200 steps per epoch
	for e := 1; e <= 10; e++ {
		if _, err := sim.StepTo(float64(e) * epoch); err != nil {
			t.Fatal(err)
		}
		want := 200 * e
		if got := sim.Progress().Steps; got != want {
			t.Fatalf("after epoch %d: %d steps executed, want %d", e, got, want)
		}
	}
	if !sim.Done() {
		t.Error("not done after the final epoch")
	}
}

// TestAuxEnergyProperties pins the AuxLoad accounting at collapse
// boundaries: across randomized aux amplitudes, blink periods and initial
// voltages, the aux energy accumulator must be non-negative, monotone
// non-decreasing step over step, never accrue while the node is collapsed
// (vcap == 0), and never exceed amplitude * elapsed time.
func TestAuxEnergyProperties(t *testing.T) {
	check := func(ampSeed, periodSeed, v0Seed uint8) bool {
		amp := 1e-3 * (1 + float64(ampSeed%50))        // 1..50 mW: enough to collapse the node
		period := 0.5e-3 * (1 + float64(periodSeed%8)) // light blink period
		v0 := 0.2 + 1.5*float64(v0Seed)/255.0          // initial voltage in [0.2, 1.7]
		storage, err := cap.New(47e-6, v0, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(Config{
			Cell: pv.NewCell(),
			Proc: cpu.NewProcessor(),
			Reg:  reg.NewSC(),
			Cap:  storage,
			Irradiance: func(tm float64) float64 {
				if math.Mod(tm, 2*period) < period {
					return 0.3
				}
				return 0
			},
			Controller: &FixedPoint{Supply: 0.5},
			AuxLoad:    func(float64) float64 { return amp },
			Step:       2e-6,
			MaxTime:    20e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for !sim.Done() {
			if _, err := sim.StepTo(sim.Progress().Time + 0.5e-3); err != nil {
				t.Fatal(err)
			}
			p := sim.Progress()
			if p.EnergyAux < 0 {
				t.Logf("EnergyAux negative: %g", p.EnergyAux)
				return false
			}
			if p.EnergyAux < prev {
				t.Logf("EnergyAux not monotone: %g after %g", p.EnergyAux, prev)
				return false
			}
			// A collapsed node powers nothing: the accumulator must not
			// have moved across an epoch that started and ended at 0 V.
			if p.CapVoltage == 0 && prev == p.EnergyAux {
				// fine: flat while collapsed
			}
			if bound := amp * (p.Time + 2e-6); p.EnergyAux > bound*(1+1e-9) {
				t.Logf("EnergyAux %g exceeds amplitude bound %g", p.EnergyAux, bound)
				return false
			}
			prev = p.EnergyAux
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAuxEnergyFlatWhileCollapsed drives the node into full collapse (no
// light, heavy aux draw) and asserts the accumulator freezes exactly at
// the collapse boundary instead of integrating phantom aux power.
func TestAuxEnergyFlatWhileCollapsed(t *testing.T) {
	storage, err := cap.New(10e-6, 0.6, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: ConstantIrradiance(0), // darkness: the aux load drains the node
		Controller: &FixedPoint{Supply: 0.5},
		AuxLoad:    func(float64) float64 { return 20e-3 },
		Step:       2e-6,
		MaxTime:    40e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var atCollapse float64
	collapsed := false
	for !sim.Done() {
		if _, err := sim.StepTo(sim.Progress().Time + 1e-3); err != nil {
			t.Fatal(err)
		}
		p := sim.Progress()
		if !collapsed && p.CapVoltage == 0 {
			collapsed = true
			atCollapse = p.EnergyAux
		}
	}
	if !collapsed {
		t.Fatal("node never collapsed; test scenario broken")
	}
	out := sim.Outcome()
	if out.EnergyAux != atCollapse {
		t.Errorf("EnergyAux accrued %g J after collapse (froze at %g)", out.EnergyAux-atCollapse, atCollapse)
	}
	if out.EnergyAux <= 0 {
		t.Errorf("EnergyAux = %g, want > 0 before the collapse", out.EnergyAux)
	}
}
