package repro

// Integration tests: cross-module invariants of the whole system that no
// single package's tests can see — determinism of full transient runs,
// energy conservation under every controller, analytic-vs-simulated
// agreement for the scheduling model, and the full stack (weather +
// federated storage + MPPT) composing correctly.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/intermittent"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/weather"
)

// buildSim assembles a simulation around the given controller with shared
// defaults.
func buildSim(t *testing.T, ctl circuit.Controller, storage circuit.Storage, irr func(float64) float64, maxTime float64) *circuit.Simulator {
	t.Helper()
	sim, err := circuit.New(circuit.Config{
		Cell:        pv.NewCell(),
		Proc:        cpu.NewProcessor(),
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  irr,
		Controller:  ctl,
		Comparators: mppt.Comparators(1.0, 0.9),
		Step:        4e-6,
		MaxTime:     maxTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func mustCap(t *testing.T, c, v float64) *cap.Capacitor {
	t.Helper()
	st, err := cap.New(c, v, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// controllers under test, freshly constructed per call.
func allControllers(t *testing.T) map[string]func() circuit.Controller {
	t.Helper()
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	table := mppt.BuildTable(cell, []float64{0.25, 1.0}, func(_, _, p float64) (float64, float64, bool) {
		return 0.5, proc.FrequencyForPower(0.5, 0.6*p), false
	})
	return map[string]func() circuit.Controller{
		"fixed": func() circuit.Controller {
			return &circuit.FixedPoint{Supply: 0.5}
		},
		"direct": func() circuit.Controller {
			return circuit.DirectConnection{}
		},
		"deadline": func() circuit.Controller {
			return &sched.DeadlineController{Cycles: 3e6, Deadline: 15e-3, Sprint: 0.2, AllowBypass: true}
		},
		"tracker": func() circuit.Controller {
			return &mppt.Tracker{Table: table}
		},
		"perturb-observe": func() circuit.Controller {
			return &mppt.PerturbObserve{Supply: 0.5}
		},
		"intermittent": func() circuit.Controller {
			return &intermittent.Executor{
				Task:   intermittent.Task{TotalCycles: 3e6, StateBytes: 512},
				Policy: intermittent.PeriodicPolicy{Interval: 0.5e6},
				Supply: 0.5,
			}
		},
	}
}

// TestEnergyConservationAcrossControllers checks the first law on every
// controller: harvested = delivered + converter losses + storage delta,
// within integration error.
func TestEnergyConservationAcrossControllers(t *testing.T) {
	irr := circuit.StepIrradiance(1.0, 0.3, 8e-3)
	for name, mk := range allControllers(t) {
		t.Run(name, func(t *testing.T) {
			storage := mustCap(t, 100e-6, 1.0)
			e0 := storage.Energy()
			sim := buildSim(t, mk(), storage, irr, 20e-3)
			out, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			delta := storage.Energy() - e0
			balance := out.EnergyHarvested - out.EnergyDelivered - out.EnergyLost - delta
			scale := math.Max(out.EnergyHarvested+math.Abs(delta), 1e-9)
			if math.Abs(balance)/scale > 0.03 {
				t.Errorf("energy imbalance %.3g J (%.1f%%): harvested %.3g delivered %.3g lost %.3g dCap %.3g",
					balance, 100*math.Abs(balance)/scale,
					out.EnergyHarvested, out.EnergyDelivered, out.EnergyLost, delta)
			}
		})
	}
}

// TestDeterminism runs every controller twice with identical inputs and
// demands bit-identical outcomes — the foundation of reproducible
// experiments.
func TestDeterminism(t *testing.T) {
	irr := circuit.RampIrradiance(1.0, 0.1, 5e-3, 15e-3)
	for name, mk := range allControllers(t) {
		t.Run(name, func(t *testing.T) {
			run := func() *circuit.Outcome {
				sim := buildSim(t, mk(), mustCap(t, 100e-6, 1.0), irr, 20e-3)
				out, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			a, b := run(), run()
			if a.CyclesDone != b.CyclesDone ||
				a.EnergyHarvested != b.EnergyHarvested ||
				a.EnergyDelivered != b.EnergyDelivered ||
				a.FinalCapVoltage != b.FinalCapVoltage {
				t.Errorf("non-deterministic outcome:\n  %+v\n  %+v", a, b)
			}
		})
	}
}

// TestSprintAnalyticMatchesSimulation validates the Eq. 12 first-order
// sprint-energy estimate against the transient simulator within a factor
// of 3 (it is a linearisation, so only the magnitude and sign must hold).
func TestSprintAnalyticMatchesSimulation(t *testing.T) {
	cell := pv.NewCell()
	proc := cpu.NewProcessor()

	const (
		cycles   = 6e6
		deadline = 26e-3
		factor   = 0.2
		irrLevel = 0.5
	)
	run := func(sprint float64) float64 {
		vmpp, _ := cell.MPP(irrLevel)
		sim, err := circuit.New(circuit.Config{
			Cell:       cell,
			Proc:       proc,
			Reg:        reg.NewBuck(),
			Cap:        mustCap(t, 100e-6, vmpp),
			Irradiance: circuit.ConstantIrradiance(irrLevel),
			Controller: &sched.DeadlineController{
				Cycles: cycles, Deadline: deadline, Sprint: sprint, AllowBypass: true,
			},
			Step:           4e-6,
			MaxTime:        2 * deadline,
			JobCycles:      cycles,
			StopOnBrownout: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out.EnergyHarvested
	}
	simGain := run(factor) - run(0)

	plan, err := sched.NewSprintPlan(proc, cycles, deadline, factor)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the analytic estimate at a representative operating point:
	// node ~0.85 V (below the 0.5-sun MPP), load = the constant-speed draw.
	loadPlan, err := sched.PlanDeadline(proc, cycles, deadline, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	analytic := plan.ExtraSolarEnergy(cell, irrLevel, 0.85, loadPlan.SourceEnergy/deadline, 100e-6)

	if simGain <= 0 {
		t.Fatalf("simulated sprint gain %.4g J not positive", simGain)
	}
	if analytic <= 0 {
		t.Fatalf("analytic estimate %.4g J not positive", analytic)
	}
	ratio := simGain / analytic
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("simulated %.4g J vs analytic %.4g J (ratio %.2f), want within 3x", simGain, analytic, ratio)
	}
}

// TestFullStackWeatherFederationMPPT composes the whole repository: a
// partly-cloudy trace powers a federated store while the time-based tracker
// manages DVFS. The node must make useful progress and stay energy
// consistent.
func TestFullStackWeatherFederationMPPT(t *testing.T) {
	gen := weather.NewGenerator(rand.New(rand.NewSource(99)),
		weather.WithDwellTimes(0.5, 0.3),
		weather.WithCloudAttenuation(0.2, 0.05),
		weather.WithRelaxationTime(0.1),
	)
	trace, err := gen.Trace(2.0, 0.002, nil)
	if err != nil {
		t.Fatal(err)
	}

	lead := mustCap(t, 10e-6, 0.9)
	bulk := mustCap(t, 190e-6, 0.9)
	fed, err := cap.NewFederation([]*cap.Capacitor{lead, bulk})
	if err != nil {
		t.Fatal(err)
	}

	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	table := mppt.BuildTable(cell, []float64{0.1, 0.25, 0.5, 1.0}, func(_, _, p float64) (float64, float64, bool) {
		return 0.5, proc.FrequencyForPower(0.5, 0.6*p), false
	})
	tracker := &mppt.Tracker{Table: table}
	e0 := lead.Energy() + bulk.Energy()

	sim, err := circuit.New(circuit.Config{
		Cell:        cell,
		Proc:        proc,
		Reg:         reg.NewSC(),
		Cap:         fed,
		Irradiance:  trace.At,
		Controller:  tracker,
		Comparators: mppt.Comparators(1.0, 0.9),
		Step:        10e-6,
		MaxTime:     2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.CyclesDone < 50e6 {
		t.Errorf("full stack executed only %.3g cycles over 2 s", out.CyclesDone)
	}
	if out.EnergyHarvested <= 0 || out.EnergyDelivered <= 0 {
		t.Error("no energy flowed through the full stack")
	}
	delta := lead.Energy() + bulk.Energy() - e0
	balance := out.EnergyHarvested - out.EnergyDelivered - out.EnergyLost - delta
	scale := math.Max(out.EnergyHarvested, 1e-9)
	if math.Abs(balance)/scale > 0.05 {
		t.Errorf("full-stack energy imbalance %.2f%%", 100*math.Abs(balance)/scale)
	}
}
