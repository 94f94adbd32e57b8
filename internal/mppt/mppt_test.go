package mppt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

func TestEstimateInputPowerClosedForm(t *testing.T) {
	// Synthetic discharge: with constant net power, the crossing time
	// follows from energy balance exactly, so the estimator must invert it.
	const (
		c    = 100e-6
		v1   = 1.00
		v2   = 0.90
		pin  = 3e-3
		draw = 10e-3
	)
	// (pin - draw) * t = C*(v2^2 - v1^2)/2  ->  t.
	elapsed := cc(c, v1, v2) / (draw - pin)
	got, err := EstimateInputPower(c, v1, v2, elapsed, draw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-pin)/pin > 1e-9 {
		t.Errorf("estimate = %.6g, want %.6g", got, pin)
	}
}

// cc is the stored-energy difference C*(v1^2-v2^2)/2.
func cc(c, v1, v2 float64) float64 {
	return c * (v1*v1 - v2*v2) / 2
}

func TestEstimateInputPowerClamping(t *testing.T) {
	// A very fast crossing with little draw implies negative input: clamp 0.
	got, err := EstimateInputPower(100e-6, 1.0, 0.9, 1e-6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("estimate = %g, want clamp at 0", got)
	}
}

func TestEstimateInputPowerErrors(t *testing.T) {
	cases := []struct {
		name               string
		c, v1, v2, t, draw float64
	}{
		{"zero time", 1e-4, 1.0, 0.9, 0, 1e-3},
		{"negative time", 1e-4, 1.0, 0.9, -1, 1e-3},
		{"inverted thresholds", 1e-4, 0.9, 1.0, 1e-3, 1e-3},
		{"zero capacitance", 0, 1.0, 0.9, 1e-3, 1e-3},
	}
	for _, tc := range cases {
		if _, err := EstimateInputPower(tc.c, tc.v1, tc.v2, tc.t, tc.draw); !errors.Is(err, ErrBadWindow) {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
}

// Property: the estimator inverts the closed-form crossing time for any
// plausible parameters.
func TestQuickEstimatorInverse(t *testing.T) {
	f := func(pinRaw, drawRaw uint16) bool {
		pin := 1e-4 + float64(pinRaw)/65535*10e-3
		draw := pin + 1e-4 + float64(drawRaw)/65535*15e-3 // draw > pin: discharging
		const c, v1, v2 = 47e-6, 1.05, 0.92
		elapsed := cc(c, v1, v2) / (draw - pin)
		got, err := EstimateInputPower(c, v1, v2, elapsed, draw)
		if err != nil {
			return false
		}
		return math.Abs(got-pin) < 1e-9+1e-6*pin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func buildTestTable() (*Table, *pv.Cell) {
	cell := pv.NewCell()
	table := BuildTable(cell, []float64{0.05, 0.25, 0.5, 1.0}, func(irr, vmpp, pmpp float64) (float64, float64, bool) {
		return 0.5, 100e6 * irr, false
	})
	return table, cell
}

func TestBuildTableSortedAndComplete(t *testing.T) {
	table, _ := buildTestTable()
	if table.Len() != 4 {
		t.Fatalf("len = %d, want 4", table.Len())
	}
	entries := table.entries
	for i := 1; i < len(entries); i++ {
		if entries[i].InputPower < entries[i-1].InputPower {
			t.Fatal("entries not sorted by input power")
		}
	}
	for _, e := range entries {
		if e.MPPVoltage <= 0 || e.InputPower <= 0 {
			t.Errorf("degenerate entry %+v", e)
		}
	}
	// Non-positive levels are skipped.
	cell := pv.NewCell()
	table2 := BuildTable(cell, []float64{-1, 0, 0.5}, func(_, _, _ float64) (float64, float64, bool) {
		return 0.5, 1e8, false
	})
	if table2.Len() != 1 {
		t.Errorf("len = %d, want 1", table2.Len())
	}
}

func TestLookupNearest(t *testing.T) {
	table, cell := buildTestTable()
	for _, irr := range []float64{0.05, 0.25, 0.5, 1.0} {
		_, pmpp := cell.MPP(irr)
		e, err := table.Lookup(pmpp * 1.05) // 5% estimation error
		if err != nil {
			t.Fatal(err)
		}
		if e.Irradiance != irr {
			t.Errorf("pin=%.3g: matched irradiance %.2f, want %.2f", pmpp, e.Irradiance, irr)
		}
	}
	if _, err := (&Table{}).Lookup(1e-3); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty table: %v", err)
	}
	// Zero estimate matches the smallest entry.
	e, err := table.Lookup(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Irradiance != 0.05 {
		t.Errorf("zero estimate matched %.2f, want 0.05", e.Irradiance)
	}
}

func TestTrackerRetargetsOnLightStep(t *testing.T) {
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sc := reg.NewSC()
	vmpp, _ := cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	table := BuildTable(cell, []float64{0.1, 0.25, 0.5, 1.0}, func(irr, vmpp, pmpp float64) (float64, float64, bool) {
		// A simple regulated plan: supply 0.5 V, frequency scaled to power.
		return 0.5, proc.FrequencyForPower(0.5, 0.6*pmpp), false
	})
	tracker := &Tracker{Table: table}
	sim, err := circuit.New(circuit.Config{
		Cell:        cell,
		Proc:        proc,
		Reg:         sc,
		Cap:         storage,
		Irradiance:  circuit.StepIrradiance(1.0, 0.25, 8e-3),
		Controller:  tracker,
		Comparators: Comparators(1.00, 0.90),
		Step:        2e-6,
		MaxTime:     50e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tracker.Estimates) == 0 {
		t.Fatal("tracker made no estimates")
	}
	if tracker.Retargets == 0 {
		t.Fatal("tracker never retargeted")
	}
	_, want := cell.MPP(0.25)
	got := tracker.Estimates[0]
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("first estimate %.3g W, want within 25%% of %.3g W", got, want)
	}
}

func TestTrackerHoldsNodeNearMPP(t *testing.T) {
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sc := reg.NewSC()
	vmpp, pmpp := cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	table := BuildTable(cell, []float64{1.0}, func(irr, v, p float64) (float64, float64, bool) {
		return 0.55, proc.FrequencyForPower(0.55, 0.7*p), false
	})
	tracker := &Tracker{Table: table}
	sim, err := circuit.New(circuit.Config{
		Cell:       cell,
		Proc:       proc,
		Reg:        sc,
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(1.0),
		Controller: tracker,
		Step:       2e-6,
		MaxTime:    30e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.FinalCapVoltage-vmpp) > 0.08 {
		t.Errorf("node at %.3f V, want near MPP %.3f V", out.FinalCapVoltage, vmpp)
	}
	// Harvest close to the MPP power on average.
	avg := out.EnergyHarvested / out.Duration
	if avg < 0.85*pmpp {
		t.Errorf("average harvest %.3g W below 85%% of MPP %.3g W", avg, pmpp)
	}
}

// runPO wires a PerturbObserve tracker into the simulator and returns the
// harvested energy plus the outcome.
func runPO(t *testing.T, irr func(float64) float64, duration float64) (*PerturbObserve, *circuit.Outcome) {
	t.Helper()
	cell := pv.NewCell()
	vmpp, _ := cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	po := &PerturbObserve{Supply: 0.5}
	sim, err := circuit.New(circuit.Config{
		Cell:       cell,
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: irr,
		Controller: po,
		Step:       2e-6,
		MaxTime:    duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return po, out
}

func TestPerturbObserveConvergesNearMPP(t *testing.T) {
	cell := pv.NewCell()
	vmpp, pmpp := cell.MPP(1.0)
	po, out := runPO(t, circuit.ConstantIrradiance(1.0), 150e-3)
	if po.Perturbations < 20 {
		t.Fatalf("only %d perturbations", po.Perturbations)
	}
	// After convergence the node should orbit the MPP voltage and the
	// harvest should be near the MPP power.
	if diff := out.FinalCapVoltage - vmpp; diff < -0.15 || diff > 0.15 {
		t.Errorf("node at %.3f V, MPP %.3f V", out.FinalCapVoltage, vmpp)
	}
	// The whole-window average includes the hill-climbing transient, so the
	// bound is looser than the tracker's steady-state quality.
	avg := out.EnergyHarvested / out.Duration
	if avg < 0.75*pmpp {
		t.Errorf("average harvest %.3g W below 75%% of MPP %.3g W", avg, pmpp)
	}
}

func TestTimeBasedBeatsPerturbObserveAfterLightStep(t *testing.T) {
	// The paper's claim: the Eq. 7 one-shot estimate re-targets faster than
	// hill climbing. Compare harvested energy in the 30 ms after a sudden
	// dimming from full sun to 25%.
	irr := circuit.StepIrradiance(1.0, 0.25, 10e-3)
	const duration = 40e-3

	_, poOut := runPO(t, irr, duration)

	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	vmpp, _ := cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	table := BuildTable(cell, []float64{0.1, 0.25, 0.5, 1.0}, func(irrLevel, v, p float64) (float64, float64, bool) {
		return 0.5, proc.FrequencyForPower(0.5, 0.6*p), false
	})
	tracker := &Tracker{Table: table}
	sim, err := circuit.New(circuit.Config{
		Cell:        cell,
		Proc:        proc,
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  irr,
		Controller:  tracker,
		Comparators: Comparators(1.00, 0.90),
		Step:        2e-6,
		MaxTime:     duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbOut, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tbOut.EnergyHarvested <= poOut.EnergyHarvested {
		t.Errorf("time-based harvested %.4g J <= perturb-observe %.4g J after the light step",
			tbOut.EnergyHarvested, poOut.EnergyHarvested)
	}
}
