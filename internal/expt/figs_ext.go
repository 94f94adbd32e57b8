package expt

// Extension experiments beyond the paper's figures: robustness of the
// holistic conclusions across process corners, multi-domain budget
// allocation (a keyword of the paper), long-horizon operation under
// stochastic weather, and intermittent execution across power failures.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cap"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/domains"
	"repro/internal/fault"
	"repro/internal/intermittent"
	"repro/internal/mppt"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/sched"
	"repro/internal/weather"
)

// ExtCornersResult checks the holistic-MEP conclusion across process
// corners: the shift stays positive and double-digit savings survive the
// production spread, addressing the single-test-chip limitation.
type ExtCornersResult struct {
	Shifts  map[string]float64 // corner -> MEP shift (V)
	Savings map[string]float64 // corner -> holistic saving fraction
}

// ExtCorners runs the Fig. 7b analysis at SS/TT/FF.
func ExtCorners() (*ExtCornersResult, error) {
	cell := pv.NewCell()
	sc := reg.NewSC()
	res := &ExtCornersResult{
		Shifts:  make(map[string]float64, 3),
		Savings: make(map[string]float64, 3),
	}
	vmpp, _ := cell.MPP(pv.FullSun)
	for _, corner := range []cpu.Corner{cpu.CornerSlow, cpu.CornerTypical, cpu.CornerFast} {
		proc := cpu.NewProcessor(cpu.WithCorner(corner))
		sys := core.NewSystem(cell, proc)
		mep, err := sys.HolisticMEP(sc, vmpp)
		if err != nil {
			return nil, fmt.Errorf("corner %v: %w", corner, err)
		}
		res.Shifts[corner.String()] = mep.VoltageShift
		res.Savings[corner.String()] = mep.Savings
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtCornersResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: holistic MEP across process corners ==")
	fmt.Fprintln(w, "  (the paper evaluates one test chip; here the SS/TT/FF spread)")
	for _, c := range []string{"SS", "TT", "FF"} {
		fmt.Fprintf(w, "  %s: shift %+.3f V, saving %.1f%%\n", c, r.Shifts[c], r.Savings[c]*100)
	}
	return nil
}

// ExtDomainsResult allocates the harvested budget across the SoC's power
// domains at several light levels.
type ExtDomainsResult struct {
	Levels []float64
	Allocs []domains.Allocation
}

// ExtDomains runs the multi-domain allocator at full, half and quarter sun.
func ExtDomains() (*ExtDomainsResult, error) {
	cell := pv.NewCell()
	alloc, err := domains.New([]domains.Domain{
		{Name: "core", Reg: reg.NewSC(), Supply: 0.55, MaxPower: 10e-3, Weight: 2},
		{Name: "sram", Reg: reg.NewLDO(), Supply: 0.45, MinPower: 0.1e-3, MaxPower: 2e-3},
		{Name: "radio", Reg: reg.NewBuck(), Supply: 0.60, MaxPower: 6e-3},
	})
	if err != nil {
		return nil, err
	}
	res := &ExtDomainsResult{Levels: []float64{1.0, 0.5, 0.25}}
	for _, irr := range res.Levels {
		vmpp, pmpp := cell.MPP(irr)
		a, err := alloc.Allocate(vmpp, pmpp)
		if err != nil {
			return nil, fmt.Errorf("irradiance %.2f: %w", irr, err)
		}
		res.Allocs = append(res.Allocs, a)
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtDomainsResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: multi-domain budget allocation ==")
	for i, irr := range r.Levels {
		a := r.Allocs[i]
		fmt.Fprintf(w, "  %3.0f%% light (draw %.2f mW):", irr*100, a.TotalDraw*1e3)
		for _, s := range a.Shares {
			fmt.Fprintf(w, "  %s %.2f mW (eta %.0f%%)", s.Name, s.LoadPower*1e3, s.Efficiency*100)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ExtWeatherResult compares energy policies over a stochastic partly-cloudy
// trace.
type ExtWeatherResult struct {
	Duration    float64
	CloudFrac   float64
	FixedCycles float64 // naive fixed-DVFS policy
	TrackCycles float64 // holistic MPP-tracked policy
	TrackGain   float64 // TrackCycles/FixedCycles - 1
}

// ExtWeather runs 20 (compressed) seconds of partly-cloudy harvesting under
// the naive and holistic policies.
func ExtWeather() (*ExtWeatherResult, error) {
	const (
		duration = 8.0
		step     = 20e-6
	)
	gen := weather.NewSeededGenerator(42,
		weather.WithDwellTimes(3, 2), // compressed time scale
		weather.WithCloudAttenuation(0.25, 0.08),
		weather.WithRelaxationTime(0.5),
	)
	trace, err := gen.Trace(duration, 0.01, nil)
	if err != nil {
		return nil, err
	}
	flat := &weather.Trace{Step: trace.Step, Samples: make([]float64, len(trace.Samples))}
	for i := range flat.Samples {
		flat.Samples[i] = 1
	}
	res := &ExtWeatherResult{
		Duration:  duration,
		CloudFrac: weather.CloudFraction(trace, flat, 0.9),
	}

	// The policy picks only the controller (the tracker also its V1/V2
	// comparators); one node assembly runs either.
	cell, proc, sc := pv.NewCell(), cpu.NewProcessor(), reg.NewSC()
	run := func(ctl circuit.Controller, comparators []circuit.Comparator) (float64, error) {
		storage, err := NewStorageCap(1.0)
		if err != nil {
			return 0, err
		}
		sim, err := circuit.New(circuit.Config{
			Cell:        cell,
			Proc:        proc,
			Reg:         sc,
			Cap:         storage,
			Irradiance:  trace.At,
			Controller:  ctl,
			Comparators: comparators,
			Step:        step,
			MaxTime:     duration,
		})
		if err != nil {
			return 0, err
		}
		out, err := sim.Run()
		if err != nil {
			return 0, err
		}
		return out.CyclesDone, nil
	}
	res.FixedCycles, err = run(&circuit.FixedPoint{Supply: 0.55}, nil)
	if err != nil {
		return nil, fmt.Errorf("fixed policy: %w", err)
	}
	table := core.NewManager(core.NewSystem(cell, proc), sc).
		BuildTrackingTable([]float64{0.05, 0.1, 0.25, 0.5, 0.75, 1.0})
	res.TrackCycles, err = run(&mppt.Tracker{Table: table}, mppt.Comparators(0.95, 0.85))
	if err != nil {
		return nil, fmt.Errorf("tracked policy: %w", err)
	}
	if res.FixedCycles > 0 {
		res.TrackGain = res.TrackCycles/res.FixedCycles - 1
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtWeatherResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: policies under stochastic partly-cloudy weather ==")
	fmt.Fprintf(w, "  %.0f s trace, %.0f%% of samples under cloud\n", r.Duration, r.CloudFrac*100)
	fmt.Fprintf(w, "  fixed 0.55 V policy: %.2f G cycles\n", r.FixedCycles/1e9)
	fmt.Fprintf(w, "  holistic tracked:    %.2f G cycles (%+.1f%%)\n", r.TrackCycles/1e9, r.TrackGain*100)
	return nil
}

// ExtIntermittentResult compares checkpoint policies on a blink-powered
// task.
type ExtIntermittentResult struct {
	Policies  []string
	Completed []bool
	Overheads []float64 // checkpoint+restore cycles
	Failures  []int
}

// extIntermittentMaxTime bounds each policy's run (s); chaos brownout
// windows resolve over the same horizon.
const extIntermittentMaxTime = 800e-3

// blinkPeriod is ext-intermittent's light period (s): lit for the first
// half of each period, dark for the second.
const blinkPeriod = 6e-3

// blinkPhase returns math.Mod(t, blinkPeriod) bit for bit, at a tenth of
// its cost. For 0 < t < 2^52 periods the floored quotient q is the true
// quotient n or n+1, because n and n+1 are floats and rounding is
// monotone. t − q·blinkPeriod is then a multiple of ulp(blinkPeriod)
// smaller than blinkPeriod in magnitude, so the FMA computes it exactly,
// and adding blinkPeriod back when q overshot is exact as well. Every
// other time (±0, negative, huge, NaN, ±Inf) takes math.Mod itself.
func blinkPhase(t float64) float64 {
	if 0 < t && t < blinkPeriod*(1<<52) {
		q := math.Floor(t / blinkPeriod)
		r := math.FMA(-q, blinkPeriod, t)
		if r < 0 {
			r += blinkPeriod
		}
		return r
	}
	return math.Mod(t, blinkPeriod)
}

// extIntermittent runs a 6 M-cycle task on 3 ms-light/3 ms-dark power with
// three checkpoint disciplines. Each checkpoint policy records onto its own
// track and ledger. Under obs.Plan, brownout windows darken the blinking
// profile and the plan's NVM section injects torn commit marks and restore
// bit-rot into the executor, every policy on its own deterministic stream.
func extIntermittent(obs Observe) (*ExtIntermittentResult, error) {
	blink := func(t float64) float64 {
		if blinkPhase(t) < blinkPeriod/2 {
			return 1.0
		}
		return 0
	}
	res := &ExtIntermittentResult{}
	policies := []intermittent.Policy{
		intermittent.NeverPolicy{},
		intermittent.PeriodicPolicy{Interval: 0.4e6},
		intermittent.VoltageTriggeredPolicy{Threshold: 0.70, MinUncommitted: 1e4},
	}
	for _, pol := range policies {
		irr := blink
		var faults intermittent.Faults
		if obs.Plan != nil {
			in := fault.New(*obs.Plan, "ext-intermittent/"+pol.Name())
			b, err := in.Brownouts(extIntermittentMaxTime)
			if err != nil {
				return nil, err
			}
			b.Emit(obs.Tracer, pol.Name(), obs.Plan.Seed)
			irr = b.Wrap(blink)
			if n := in.NVM(); n != nil {
				faults = n
			}
		}
		e := &intermittent.Executor{
			Task:   intermittent.Task{TotalCycles: 6e6, StateBytes: 1024},
			Policy: pol,
			Supply: 0.50,
			Faults: faults,
		}
		storage, err := cap.New(47e-6, 1.0, 2.0)
		if err != nil {
			return nil, err
		}
		sim, err := circuit.New(circuit.Config{
			Cell:       pv.NewCell(),
			Proc:       cpu.NewProcessor(),
			Reg:        reg.NewSC(),
			Cap:        storage,
			Irradiance: irr,
			Controller: e,
			Step:       2e-6,
			MaxTime:    extIntermittentMaxTime,
			Tracer:     obs.Tracer,
			TraceTrack: pol.Name(),
			Ledger:     profLedger(obs.Profile, "ext-intermittent", pol.Name()),
		})
		if err != nil {
			return nil, err
		}
		if _, err := sim.Run(); err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.Name(), err)
		}
		res.Policies = append(res.Policies, pol.Name())
		res.Completed = append(res.Completed, e.Stats.Completed)
		res.Overheads = append(res.Overheads, e.Stats.CheckpointCycles+e.Stats.RestoreCycles)
		res.Failures = append(res.Failures, e.Stats.Failures)
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtIntermittentResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: intermittent execution across power failures ==")
	for i, p := range r.Policies {
		status := "did not finish"
		if r.Completed[i] {
			status = "completed"
		}
		fmt.Fprintf(w, "  %-18s %-15s %3d failures, %.2f M overhead cycles\n",
			p, status, r.Failures[i], r.Overheads[i]/1e6)
	}
	return nil
}

// ExtFederationResult compares cold-start behaviour of a monolithic storage
// capacitor against a federated bank (the paper's federated-storage
// citation): from an empty store at dawn, how long until the first
// recognition frame completes.
type ExtFederationResult struct {
	MonolithBoot          float64 // first executed cycle (s); +Inf if never
	FederationBoot        float64 // first executed cycle (s); +Inf if never
	MonolithFirstResult   float64 // (s); +Inf if never
	FederationFirstResult float64 // (s); +Inf if never
	BootSpeedup           float64 // monolith boot / federation boot
	Speedup               float64 // monolith first-result / federation first-result
}

// extFederationJob is one 64x64 recognition frame.
const extFederationJob = 1.2e6

// extFederationRun cold-starts one frame on storage and returns the times
// of its first executed cycle and of its first result (+Inf if never).
func extFederationRun(storage circuit.Storage) (boot, done float64, err error) {
	sim, err := circuit.New(circuit.Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: circuit.ConstantIrradiance(0.15),
		Controller: &sched.DeadlineController{Cycles: extFederationJob, Deadline: 60e-3, AllowBypass: true},
		Step:       4e-6,
		MaxTime:    800e-3,
		JobCycles:  extFederationJob,
		TraceEvery: 25,
	})
	if err != nil {
		return 0, 0, err
	}
	out, err := sim.Run()
	if err != nil {
		return 0, 0, err
	}
	boot = math.Inf(1)
	for _, smp := range out.Trace.Samples {
		if smp.Frequency > 0 {
			boot = smp.Time
			break
		}
	}
	done = math.Inf(1)
	if out.Completed {
		done = out.CompletionTime
	}
	return boot, done, nil
}

// ExtFederation runs the cold-start comparison under weak (15%) light. The
// run stops at the first result, before the selector ever switches, so
// the federation's times are its 10 uF lead's: the 290 uF member never
// connects.
func ExtFederation() (*ExtFederationResult, error) {
	mono, err := cap.New(300e-6, 0, 2.0)
	if err != nil {
		return nil, err
	}
	bootMono, tMono, err := extFederationRun(mono)
	if err != nil {
		return nil, fmt.Errorf("monolith: %w", err)
	}

	lead, err := cap.New(10e-6, 0, 2.0)
	if err != nil {
		return nil, err
	}
	bulk, err := cap.New(290e-6, 0, 2.0)
	if err != nil {
		return nil, err
	}
	fed, err := cap.NewFederation([]*cap.Capacitor{lead, bulk})
	if err != nil {
		return nil, err
	}
	bootFed, tFed, err := extFederationRun(fed)
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}

	res := &ExtFederationResult{
		MonolithBoot:          bootMono,
		FederationBoot:        bootFed,
		MonolithFirstResult:   tMono,
		FederationFirstResult: tFed,
	}
	if bootFed > 0 && !math.IsInf(bootFed, 1) && !math.IsInf(bootMono, 1) {
		res.BootSpeedup = bootMono / bootFed
	}
	if tFed > 0 && !math.IsInf(tFed, 1) && !math.IsInf(tMono, 1) {
		res.Speedup = tMono / tFed
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtFederationResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: federated storage cold start (empty store, 15% light) ==")
	fmt.Fprintf(w, "  monolithic 300 uF: boots at %s, first result at %s\n",
		fmtTime(r.MonolithBoot), fmtTime(r.MonolithFirstResult))
	fmt.Fprintf(w, "  federation 10+290 uF: boots at %s, first result at %s\n",
		fmtTime(r.FederationBoot), fmtTime(r.FederationFirstResult))
	if r.BootSpeedup > 0 {
		fmt.Fprintf(w, "  boot speedup: %.0fx; first-result speedup: %.1fx\n", r.BootSpeedup, r.Speedup)
	}
	return nil
}

// fmtTime renders a possibly infinite duration.
func fmtTime(t float64) string {
	if math.IsInf(t, 1) {
		return "never (within the horizon)"
	}
	return fmt.Sprintf("%.1f ms", t*1e3)
}

// ExtShadingResult quantifies the partial-shading trap: under a shaded
// string the P-V curve has several local maxima, and a local hill climber
// (like perturb-and-observe) that locks onto the wrong hump strands a large
// fraction of the available power. A table/scan-based tracker with a
// global view does not.
type ExtShadingResult struct {
	Patterns    [][]float64 // per-segment irradiances
	GlobalPower []float64   // global MPP power per pattern (W)
	WorstLocal  []float64   // weakest local-hump power per pattern (W)
	WorstLoss   float64     // largest fraction of power a trapped tracker loses
}

// ExtShading evaluates three shading patterns on a three-segment string.
func ExtShading() (*ExtShadingResult, error) {
	cells := []*pv.Cell{pv.NewCell(), pv.NewCell(), pv.NewCell()}
	arr, err := pv.NewArray(cells)
	if err != nil {
		return nil, err
	}
	res := &ExtShadingResult{
		Patterns: [][]float64{
			{1.0, 1.0, 1.0},  // uniform: one hump, nothing to lose
			{1.0, 1.0, 0.3},  // one shaded segment
			{1.0, 0.5, 0.15}, // graded shading: three humps
		},
	}
	for _, pattern := range res.Patterns {
		_, pGlobal := arr.GlobalMPP(pattern)
		worst := pGlobal
		for _, v := range arr.LocalMPPs(pattern) {
			if p := arr.Power(v, pattern); p < worst {
				worst = p
			}
		}
		res.GlobalPower = append(res.GlobalPower, pGlobal)
		res.WorstLocal = append(res.WorstLocal, worst)
		if pGlobal > 0 {
			if loss := 1 - worst/pGlobal; loss > res.WorstLoss {
				res.WorstLoss = loss
			}
		}
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtShadingResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: partial shading and the local-maximum trap ==")
	for i, pattern := range r.Patterns {
		loss := 0.0
		if r.GlobalPower[i] > 0 {
			loss = 1 - r.WorstLocal[i]/r.GlobalPower[i]
		}
		fmt.Fprintf(w, "  segments %v: global MPP %.2f mW, worst local hump %.2f mW (%.0f%% stranded)\n",
			pattern, r.GlobalPower[i]*1e3, r.WorstLocal[i]*1e3, loss*100)
	}
	fmt.Fprintf(w, "  worst case: a hill-climbing tracker can strand %.0f%% of the harvest\n", r.WorstLoss*100)
	return nil
}

// ExtDutyCycleResult maps sustainable (energy-neutral) throughput against
// light level — the long-horizon analogue of Fig. 6b: at every level, the
// best duty-cycled operating voltage with the converter's efficiency folded
// in, versus the naive rule of running bursts at a fixed 0.55 V.
type ExtDutyCycleResult struct {
	Levels         []float64
	BestThroughput []float64 // sustained clock rate (Hz)
	BestSupply     []float64 // burst voltage of the optimum (V)
	NaiveThrough   []float64 // fixed-0.55 V bursts (Hz)
	BestGain       float64   // max holistic gain over naive
}

// ExtDutyCycle sweeps light levels for energy-neutral operation.
func ExtDutyCycle() (*ExtDutyCycleResult, error) {
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	sc := reg.NewSC()
	const sleepPower = 30e-6

	res := &ExtDutyCycleResult{Levels: []float64{1.0, 0.5, 0.25, 0.1}}
	for _, irr := range res.Levels {
		vmpp, pmpp := cell.MPP(irr)
		etaAt := func(supply, load float64) float64 {
			return sc.Efficiency(vmpp, supply, load)
		}
		best, err := sched.BestDutyCyclePoint(proc, pmpp, sleepPower, etaAt)
		if err != nil {
			return nil, fmt.Errorf("irradiance %.2f: %w", irr, err)
		}
		res.BestThroughput = append(res.BestThroughput, best.AverageThrough)
		res.BestSupply = append(res.BestSupply, best.ActiveSupply)

		naive := 0.0
		if eta := etaAt(0.55, proc.MaxPower(0.55)); eta > 0 {
			if plan, err := sched.PlanDutyCycle(proc, 0.55, eta, pmpp, sleepPower); err == nil {
				naive = plan.AverageThrough
			}
		}
		res.NaiveThrough = append(res.NaiveThrough, naive)
		if naive > 0 {
			if gain := best.AverageThrough/naive - 1; gain > res.BestGain {
				res.BestGain = gain
			}
		}
	}
	return res, nil
}

// Report implements Reporter.
func (r *ExtDutyCycleResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: energy-neutral duty-cycled throughput vs light ==")
	for i, irr := range r.Levels {
		fmt.Fprintf(w, "  %3.0f%% light: best %.0f MHz sustained at %.2f V bursts (naive 0.55 V: %.0f MHz)\n",
			irr*100, r.BestThroughput[i]/1e6, r.BestSupply[i], r.NaiveThrough[i]/1e6)
	}
	fmt.Fprintf(w, "  best holistic gain over the fixed rule: %+.0f%%\n", r.BestGain*100)
	return nil
}

// ExtTemperatureResult sweeps die temperature: leakage roughly doubles
// every 15 C, so the energy floor and the holistic savings move with the
// seasons an outdoor battery-less node experiences.
type ExtTemperatureResult struct {
	Celsius   []float64
	MEPPerC   []float64 // minimum energy per cycle (J)
	Savings   []float64 // holistic saving at each temperature
	ColdToHot float64   // MEP energy ratio hot/cold
}

// ExtTemperature runs the MEP analysis from -10 C to +60 C.
func ExtTemperature() (*ExtTemperatureResult, error) {
	cell := pv.NewCell()
	sc := reg.NewSC()
	vmpp, _ := cell.MPP(pv.FullSun)
	res := &ExtTemperatureResult{Celsius: []float64{-10, 10, 25, 40, 60}}
	for _, tc := range res.Celsius {
		proc := cpu.NewProcessor(cpu.WithTemperature(tc))
		sys := core.NewSystem(cell, proc)
		_, e := proc.ConventionalMEP()
		res.MEPPerC = append(res.MEPPerC, e)
		mep, err := sys.HolisticMEP(sc, vmpp)
		if err != nil {
			return nil, fmt.Errorf("%g C: %w", tc, err)
		}
		res.Savings = append(res.Savings, mep.Savings)
	}
	res.ColdToHot = res.MEPPerC[len(res.MEPPerC)-1] / res.MEPPerC[0]
	return res, nil
}

// Report implements Reporter.
func (r *ExtTemperatureResult) Report(w io.Writer) error {
	fmt.Fprintln(w, "== EXT: minimum energy per cycle across die temperature ==")
	for i, tc := range r.Celsius {
		fmt.Fprintf(w, "  %+3.0f C: MEP %.1f pJ/cycle, holistic saving %.1f%%\n",
			tc, r.MEPPerC[i]*1e12, r.Savings[i]*100)
	}
	fmt.Fprintf(w, "  energy floor grows %.2fx from -10 C to +60 C\n", r.ColdToHot)
	return nil
}
