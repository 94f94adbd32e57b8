package circuit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/trace"
)

func testConfig(t *testing.T, ctl Controller) Config {
	t.Helper()
	storage, err := cap.New(100e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: ConstantIrradiance(1.0),
		Controller: ctl,
		Step:       5e-6,
		MaxTime:    20e-3,
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(t, &FixedPoint{Supply: 0.5})
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no cell", func(c *Config) { c.Cell = nil }},
		{"no proc", func(c *Config) { c.Proc = nil }},
		{"no reg", func(c *Config) { c.Reg = nil }},
		{"no cap", func(c *Config) { c.Cap = nil }},
		{"no irradiance", func(c *Config) { c.Irradiance = nil }},
		{"no controller", func(c *Config) { c.Controller = nil }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); !errors.Is(err, ErrMissingComponent) {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
	cfg := base
	cfg.IrradianceSource = Constant{Level: 1}
	if _, err := New(cfg); !errors.Is(err, ErrTwoLightInputs) {
		t.Errorf("both light inputs: got %v", err)
	}
	cfg.Irradiance = nil
	if _, err := New(cfg); err != nil {
		t.Errorf("IrradianceSource alone: got %v", err)
	}
	cfg = base
	cfg.Step = 0
	if _, err := New(cfg); !errors.Is(err, ErrInvalidStep) {
		t.Errorf("zero step: got %v", err)
	}
	cfg = base
	cfg.MaxTime = -1
	if _, err := New(cfg); !errors.Is(err, ErrInvalidStep) {
		t.Errorf("negative horizon: got %v", err)
	}
}

func TestEnergyConservation(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.55})
	storage := cfg.Cap.(*cap.Capacitor)
	e0 := storage.Energy()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Harvested = delivered + converter losses + storage delta (+ integration error).
	deltaCap := storage.Energy() - e0
	balance := out.EnergyHarvested - out.EnergyDelivered - out.EnergyLost - deltaCap
	scale := math.Max(out.EnergyHarvested, 1e-9)
	if math.Abs(balance)/scale > 0.02 {
		t.Errorf("energy imbalance %.3g J (%.2f%% of harvested %.3g J)",
			balance, 100*math.Abs(balance)/scale, out.EnergyHarvested)
	}
	if out.EnergyHarvested <= 0 || out.EnergyDelivered <= 0 {
		t.Error("no energy flowed")
	}
}

func TestFixedPointSteadyState(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.5})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.BrownedOut {
		t.Error("moderate load at full sun should not brown out")
	}
	// Cycles executed at ~fmax(0.5 V) for 20 ms.
	proc := cpu.NewProcessor()
	want := proc.MaxFrequency(0.5) * out.Duration
	if math.Abs(out.CyclesDone-want)/want > 0.01 {
		t.Errorf("cycles = %.3g, want ~%.3g", out.CyclesDone, want)
	}
}

func TestFixedPointCustomFrequency(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.6, Frequency: 50e6})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 50e6 * out.Duration
	if math.Abs(out.CyclesDone-want)/want > 0.01 {
		t.Errorf("cycles = %.3g, want ~%.3g", out.CyclesDone, want)
	}
}

func TestDirectConnectionSettlesAtLoadLine(t *testing.T) {
	cfg := testConfig(t, DirectConnection{})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The node must settle where the full-speed load line crosses the I-V
	// curve (~0.5 V for the calibrated models).
	if out.FinalCapVoltage < 0.4 || out.FinalCapVoltage > 0.65 {
		t.Errorf("direct-connection node settled at %.3f V, want ~0.5 V", out.FinalCapVoltage)
	}
}

func TestJobCompletion(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.55})
	cfg.JobCycles = 1e6 // finishes in ~2.5 ms at ~400 MHz
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("job did not complete")
	}
	if out.CompletionTime <= 0 || out.CompletionTime > 5e-3 {
		t.Errorf("completion at %.3g s, want ~2.5 ms", out.CompletionTime)
	}
	if out.CyclesDone < 1e6 {
		t.Errorf("cycles done %.3g < job", out.CyclesDone)
	}
}

func TestBrownoutInDarkness(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.55})
	cfg.Irradiance = ConstantIrradiance(0) // darkness: cap drains
	cfg.MaxTime = 100e-3
	cfg.StopOnBrownout = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.BrownedOut {
		t.Fatal("expected brownout in darkness")
	}
	if out.BrownoutTime <= 0 || out.BrownoutTime >= cfg.MaxTime {
		t.Errorf("brownout at %.3g s", out.BrownoutTime)
	}
	if out.Duration > cfg.MaxTime/2 {
		t.Errorf("StopOnBrownout did not stop early (ran %.3g s)", out.Duration)
	}
}

// rampProbe drives a bypassed core down a discharging node: before each
// step it commands a clock relative to fmax at the coming step's supply —
// well below it, one ulp either side of it, at it and above it — and after
// the step it checks the step's bits against the Processor methods.
type rampProbe struct {
	t     *testing.T
	f     float64 // the clock commanded for the coming step
	steps int     // steps checked
	vLast float64 // the last step's supply
}

// rampClocks are the probe's commands as functions of fmax, cycled step by
// step: runs of certifiable clocks, then the ulps around fmax and beyond.
var rampClocks = []func(fm float64) float64{
	func(fm float64) float64 { return 0.3 * fm },
	func(fm float64) float64 { return 0.9 * fm },
	func(fm float64) float64 { return 0.99 * fm },
	func(fm float64) float64 { return fm * (1 - 1e-9) },
	func(fm float64) float64 { return math.Nextafter(fm, 0) },
	func(fm float64) float64 { return fm },
	func(fm float64) float64 { return math.Nextafter(fm, math.Inf(1)) },
	func(fm float64) float64 { return 1.5 * fm },
	func(fm float64) float64 { return 0.6 * fm },
	func(fm float64) float64 { return 0 },
	func(fm float64) float64 { return 0.75 * fm },
}

func (c *rampProbe) Init(s *State) {
	s.SetBypass(true)
	c.command(s)
}

func (c *rampProbe) command(s *State) {
	p := s.Processor()
	c.f = rampClocks[c.steps%len(rampClocks)](p.MaxFrequency(math.Min(s.CapVoltage(), p.MaxVoltage())))
	s.SetFrequency(c.f)
}

func (c *rampProbe) OnStep(s *State) {
	if s.Halted() {
		return // StopOnBrownout ends the run here
	}
	p, v := s.Processor(), s.effSupply
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	fm := p.MaxFrequency(v)
	want := math.Min(c.f, fm)
	if !same(s.Frequency(), want) {
		c.t.Fatalf("step %d at %v V: Frequency() = %v for %v, want %v (fmax %v)", c.steps, v, s.Frequency(), c.f, want, fm)
	}
	if got, want := s.InputPower(), p.Power(v, want); !same(got, want) {
		c.t.Fatalf("step %d at %v V: InputPower() = %v, want %v", c.steps, v, got, want)
	}
	// Asking for fmax's bits moves the knot to this supply; asking on every
	// fifth step lets it fall behind the supply in between.
	if c.steps%5 == 0 && !same(s.MaxFrequency(), fm) {
		c.t.Fatalf("step %d at %v V: MaxFrequency() = %v, want %v", c.steps, v, s.MaxFrequency(), fm)
	}
	if c.steps > 0 && !(v <= c.vLast) {
		c.t.Fatalf("step %d: supply rose from %v to %v V", c.steps, c.vLast, v)
	}
	c.steps++
	c.vLast = v
	c.command(s)
}

func (c *rampProbe) OnThreshold(*State, ThresholdEvent) {}

// TestBypassedRampOperatingPoint walks a bypassed core in darkness down a
// discharging node, so the supply is the falling node voltage on every
// step, and checks the operating point's clock, input power and fmax
// against the Processor methods bit for bit (through the supply memo's
// knot certificate and its alpha law). One node falls from above the
// rated maximum to its brownout; one is so large that its supply creeps
// down by a few ulps a step, where only the certificate's rounding slack
// keeps a clock an ulp above fmax from passing.
func TestBypassedRampOperatingPoint(t *testing.T) {
	for _, tc := range []struct {
		name         string
		capacitance  float64 // F
		v0, horizon  float64 // V, s
		minSteps     int
		vEndAtLeast  float64 // the last supply is at or below this (V)
		wantBrownout bool
	}{
		{"to brownout", 1e-3, 1.21, 1, 10000, 0.36, true},
		{"creeping", 1e8, 0.7, 0.02, 3999, 0.7, false},
	} {
		probe := &rampProbe{t: t}
		cfg := testConfig(t, probe)
		storage, err := cap.New(tc.capacitance, tc.v0, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cap, cfg.Irradiance = storage, ConstantIrradiance(0)
		cfg.MaxTime, cfg.StopOnBrownout = tc.horizon, true
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.BrownedOut != tc.wantBrownout || probe.steps < tc.minSteps || probe.vLast > tc.vEndAtLeast {
			t.Errorf("%s: %d steps ending at %v V (browned out %v), want >= %d steps to %v V (%v)",
				tc.name, probe.steps, probe.vLast, out.BrownedOut, tc.minSteps, tc.vEndAtLeast, tc.wantBrownout)
		}
	}
}

// frozenStorage holds its node at one voltage: ApplyCurrent moves
// nothing, as a capacitor whose update has reached a float fixed point.
type frozenStorage struct{ v float64 }

func (f *frozenStorage) Voltage() float64                  { return f.v }
func (f *frozenStorage) ApplyCurrent(_, _ float64) float64 { return f.v }
func (f *frozenStorage) Capacitance() float64              { return 1 }

// commandProbe changes one command per step on a frozen node, the case the
// operating-point memo must not answer from its last resolve, and checks
// every step's operating point against the Processor and Regulator methods
// called directly. Its command lists repeat a value now and then, which the
// memo must keep answering.
type commandProbe struct {
	t     *testing.T
	what  string // "clock", "supply" or "bypass"
	steps int
}

var (
	probeClocks   = []float64{20e6, 40e6, 40e6, 5e6, 300e6, 0, 20e6}
	probeSupplies = []float64{0.45, 0.55, 0.55, 0.7, 0.3, 0, 1.1, 0.45}
	probeBypass   = []bool{true, false, false, true, true, false}
)

func (c *commandProbe) Init(s *State) {
	s.SetSupply(0.5)
	s.SetFrequency(30e6)
	c.command(s)
}

func (c *commandProbe) command(s *State) {
	switch c.what {
	case "clock":
		s.SetFrequency(probeClocks[c.steps%len(probeClocks)])
	case "supply":
		s.SetSupply(probeSupplies[c.steps%len(probeSupplies)])
	case "bypass":
		s.SetBypass(probeBypass[c.steps%len(probeBypass)])
	}
}

func (c *commandProbe) OnStep(s *State) {
	supply, freq, input, halted := directOperatingPoint(s, s.CapVoltage())
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(s.effSupply, supply) || !same(s.Frequency(), freq) || !same(s.InputPower(), input) || s.Halted() != halted {
		c.t.Fatalf("%s, step %d: supply %v, clock %v, input %v W, halted %v; the methods give %v, %v, %v W, %v",
			c.what, c.steps, s.effSupply, s.Frequency(), s.InputPower(), s.Halted(), supply, freq, input, halted)
	}
	c.steps++
	c.command(s)
}

func (c *commandProbe) OnThreshold(*State, ThresholdEvent) {}

// directOperatingPoint is resolveOperatingPoint on a continuous clock,
// written with the Processor's and the Regulator's own methods.
func directOperatingPoint(s *State, vcap float64) (supply, freq, input float64, halted bool) {
	p, r := s.Processor(), s.Regulator()
	if s.Bypassed() {
		supply = math.Min(vcap, p.MaxVoltage())
		if supply < p.MinVoltage() {
			return supply, 0, p.LeakagePower(supply), true
		}
		freq = math.Min(s.freqTarget, p.MaxFrequency(supply))
		return supply, freq, p.Power(supply, freq), false
	}
	lo, hi := r.OutputRange(vcap)
	supply = math.Min(s.vddTarget, hi)
	if supply < lo || supply <= 0 {
		return 0, 0, 0, true
	}
	load := p.LeakagePower(supply)
	if halted = supply < p.MinVoltage(); !halted {
		freq = math.Min(s.freqTarget, p.MaxFrequency(supply))
		load = p.Power(supply, freq)
	}
	if eta := r.Efficiency(vcap, supply, load); eta > 0 {
		return supply, freq, load / eta, halted
	}
	return supply, freq, load, halted
}

// TestOperatingPointFollowsCommands runs commandProbe on a node frozen at
// 0.8 V, changing only the clock, only the supply or only the bypass per
// step, so vcap repeats its bits on every step and only the commands move
// the operating point.
func TestOperatingPointFollowsCommands(t *testing.T) {
	for _, what := range []string{"clock", "supply", "bypass"} {
		probe := &commandProbe{t: t, what: what}
		cfg := testConfig(t, probe)
		cfg.Cap, cfg.MaxTime = &frozenStorage{v: 0.8}, 200*cfg.Step
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if probe.steps != 200 {
			t.Errorf("%s: %d steps checked, want 200", what, probe.steps)
		}
	}
}

// thresholdRecorder records comparator events.
type thresholdRecorder struct {
	FixedPoint
	events []ThresholdEvent
}

func (r *thresholdRecorder) OnThreshold(_ *State, ev ThresholdEvent) {
	r.events = append(r.events, ev)
}

func TestComparatorEvents(t *testing.T) {
	rec := &thresholdRecorder{FixedPoint: FixedPoint{Supply: 0.55}}
	cfg := testConfig(t, rec)
	cfg.Irradiance = ConstantIrradiance(0) // steady discharge through thresholds
	cfg.Comparators = []Comparator{
		{Threshold: 0.9, Hysteresis: 0.01},
		{Threshold: 0.8, Hysteresis: 0.01},
	}
	cfg.MaxTime = 60e-3
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) < 2 {
		t.Fatalf("got %d events, want >= 2", len(rec.events))
	}
	// Falling crossings in threshold order: 0.9 before 0.8.
	if rec.events[0].Threshold != 0.9 || rec.events[0].Rising {
		t.Errorf("first event %+v, want falling 0.9", rec.events[0])
	}
	if rec.events[1].Threshold != 0.8 || rec.events[1].Rising {
		t.Errorf("second event %+v, want falling 0.8", rec.events[1])
	}
	if rec.events[1].Time <= rec.events[0].Time {
		t.Error("events out of order")
	}
}

func TestComparatorHysteresisNoChatter(t *testing.T) {
	rec := &thresholdRecorder{FixedPoint: FixedPoint{Supply: 0.55}}
	cfg := testConfig(t, rec)
	// Node hovers near its equilibrium; a comparator pinned there with wide
	// hysteresis must not fire repeatedly.
	cfg.Comparators = []Comparator{{Threshold: 1.02, Hysteresis: 0.2}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) > 1 {
		t.Errorf("comparator chattered: %d events", len(rec.events))
	}
}

func TestTraceRecording(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.5})
	cfg.TraceEvery = 100
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("no trace recorded")
	}
	steps := int(cfg.MaxTime / cfg.Step)
	want := steps / cfg.TraceEvery
	if len(out.Trace.Samples) < want || len(out.Trace.Samples) > want+1 {
		t.Errorf("got %d samples, want ~%d", len(out.Trace.Samples), want)
	}
	prev := -1.0
	for _, s := range out.Trace.Samples {
		if s.Time <= prev {
			t.Fatal("trace times not increasing")
		}
		prev = s.Time
		if s.CapVoltage < 0 || s.Supply < 0 || s.Frequency < 0 {
			t.Fatalf("negative quantities in sample %+v", s)
		}
	}
	// No trace when disabled.
	cfg2 := testConfig(t, &FixedPoint{Supply: 0.5})
	sim2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Trace != nil {
		t.Error("trace recorded although disabled")
	}
}

// stopAfter requests a controller stop at a given time.
type stopAfter struct {
	FixedPoint
	at float64
}

func (s *stopAfter) OnStep(st *State) {
	if st.Time() >= s.at {
		st.Stop("test stop")
	}
}

func TestControllerStop(t *testing.T) {
	ctl := &stopAfter{FixedPoint: FixedPoint{Supply: 0.5}, at: 5e-3}
	cfg := testConfig(t, ctl)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Stopped || out.StopReason != "test stop" {
		t.Errorf("stop not recorded: %+v", out)
	}
	if out.StoppedAt < 5e-3 || out.StoppedAt > 6e-3 {
		t.Errorf("stopped at %.4g s, want ~5 ms", out.StoppedAt)
	}
}

func TestRegulatorDropoutLimiting(t *testing.T) {
	// Command an output the regulator cannot reach from the (low) node
	// voltage: the supply must be limited, not overdriven.
	storage, err := cap.New(100e-6, 0.6, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: ConstantIrradiance(0.3),
		Controller: &FixedPoint{Supply: 0.55}, // max reachable is 0.5*0.6=0.3
		Step:       5e-6,
		MaxTime:    2e-3,
		TraceEvery: 10,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The SC's largest ratio is 5:4, so the reachable output tops out at
	// 0.8 * node voltage.
	for _, s := range out.Trace.Samples {
		// The sample's node voltage is post-integration while the supply was
		// resolved pre-integration, so allow a small one-step slack.
		if s.Supply > 0.8*s.CapVoltage+2e-3 {
			t.Fatalf("supply %.3f exceeds regulator range from node %.3f", s.Supply, s.CapVoltage)
		}
	}
}

func TestIrradianceProfiles(t *testing.T) {
	step := StepIrradiance(1.0, 0.2, 5e-3)
	if step(0) != 1.0 || step(4.9e-3) != 1.0 || step(5.1e-3) != 0.2 {
		t.Error("step profile wrong")
	}
	ramp := RampIrradiance(1.0, 0.0, 1.0, 3.0)
	if ramp(0.5) != 1.0 || ramp(3.5) != 0.0 {
		t.Error("ramp endpoints wrong")
	}
	if got := ramp(2.0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ramp midpoint = %g, want 0.5", got)
	}
	day := DayIrradiance(6, 18, 0.9)
	if day(5) != 0 || day(19) != 0 {
		t.Error("night should be dark")
	}
	if got := day(12); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("noon = %g, want 0.9", got)
	}
	pw := PiecewiseIrradiance([]float64{0, 1, 2}, []float64{0, 1, 0})
	if pw(-1) != 0 || pw(3) != 0 {
		t.Error("piecewise ends wrong")
	}
	if got := pw(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("piecewise interp = %g", got)
	}
	if got := pw(1.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("piecewise interp down = %g", got)
	}
	// Degenerate inputs fall back to darkness.
	if PiecewiseIrradiance(nil, nil)(0) != 0 {
		t.Error("empty piecewise should be dark")
	}
	if PiecewiseIrradiance([]float64{0, 1}, []float64{1})(0) != 0 {
		t.Error("mismatched piecewise should be dark")
	}
	if ConstantIrradiance(0.4)(123) != 0.4 {
		t.Error("constant profile wrong")
	}
}

func BenchmarkSimulationStep(b *testing.B) {
	storage, err := cap.New(100e-6, 1.0, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Cell:       pv.NewCell(),
		Proc:       cpu.NewProcessor(),
		Reg:        reg.NewSC(),
		Cap:        storage,
		Irradiance: ConstantIrradiance(1.0),
		Controller: &FixedPoint{Supply: 0.55},
		Step:       5e-6,
		MaxTime:    float64(b.N) * 5e-6,
	}
	sim, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// probeController exercises every State accessor and mutator from inside a
// running simulation.
type probeController struct {
	checked bool
	fail    string
}

func (p *probeController) Init(s *State) {
	s.SetBypass(false)
	s.SetSupply(0.55)
	s.SetFrequency(100e6)
	// Negative commands clamp to zero.
	s.SetFrequency(-5)
	if s.freqTarget != 0 {
		p.fail = "negative frequency not clamped"
	}
	s.SetSupply(-1)
	if s.vddTarget != 0 {
		p.fail = "negative supply not clamped"
	}
	s.SetSupply(0.55)
	s.SetFrequency(100e6)
}

func (p *probeController) OnStep(s *State) {
	if p.checked || s.Time() < 1e-3 {
		return
	}
	p.checked = true
	switch {
	case s.CapVoltage() <= 0:
		p.fail = "CapVoltage"
	case s.effSupply <= 0 || s.effSupply > 0.56:
		p.fail = "Supply"
	case s.Frequency() <= 0 || s.Frequency() > 100e6+1:
		p.fail = "Frequency"
	case s.CyclesDone() <= 0:
		p.fail = "CyclesDone"
	case s.cfg.JobCycles != 0:
		p.fail = "JobCycles"
	case s.Bypassed():
		p.fail = "Bypassed"
	case s.Halted():
		p.fail = "Halted"
	case s.loadPow <= 0:
		p.fail = "LoadPower"
	case s.InputPower() < s.loadPow:
		p.fail = "InputPower below LoadPower"
	case s.Step() != 5e-6:
		p.fail = "Step"
	case s.ComparatorThreshold(0) != 0.9:
		p.fail = "ComparatorThreshold"
	case s.ComparatorThreshold(99) != 0:
		p.fail = "ComparatorThreshold out of range"
	case s.Processor() == nil || s.Regulator() == nil || s.Capacitor() == nil:
		p.fail = "component accessors"
	}
}

func (p *probeController) OnThreshold(*State, ThresholdEvent) {}

func TestStateAccessors(t *testing.T) {
	probe := &probeController{}
	cfg := testConfig(t, probe)
	cfg.Comparators = []Comparator{{Threshold: 0.9, Hysteresis: 0.01}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("probe never ran")
	}
	if probe.fail != "" {
		t.Errorf("accessor check failed: %s", probe.fail)
	}
}

func TestAuxLoadAccounting(t *testing.T) {
	cfg := testConfig(t, &FixedPoint{Supply: 0.5})
	const auxDraw = 2e-3
	cfg.AuxLoad = func(t float64) float64 {
		if t < 10e-3 {
			return auxDraw
		}
		return -1 // negative clamps to zero
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := auxDraw * 10e-3
	if math.Abs(out.EnergyAux-want)/want > 0.01 {
		t.Errorf("aux energy %.4g, want %.4g", out.EnergyAux, want)
	}
}

func TestDirectConnectionControllerMethods(t *testing.T) {
	// Exercise the DirectConnection OnStep/OnThreshold plumbing directly.
	cfg := testConfig(t, DirectConnection{})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.CyclesDone <= 0 {
		t.Error("direct connection did no work")
	}
	DirectConnection{}.OnThreshold(nil, ThresholdEvent{})
	(&FixedPoint{}).OnStep(nil)
	(&FixedPoint{}).OnThreshold(nil, ThresholdEvent{})
}

func TestRisingComparatorEvent(t *testing.T) {
	// Start below a threshold under bright light with a light load: the node
	// charges up through it, firing a rising event.
	rec := &thresholdRecorder{FixedPoint: FixedPoint{Supply: 0.4}}
	storage, err := cap.New(100e-6, 0.6, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cell:        pv.NewCell(),
		Proc:        cpu.NewProcessor(),
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  ConstantIrradiance(1.0),
		Controller:  rec,
		Comparators: []Comparator{{Threshold: 0.8, Hysteresis: 0.01}},
		Step:        5e-6,
		MaxTime:     30e-3,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) == 0 || !rec.events[0].Rising {
		t.Fatalf("expected a rising crossing, got %+v", rec.events)
	}
}

func TestEventLogRecordsTransitions(t *testing.T) {
	// Blink power with a deadline-free fixed point: the node collapses in
	// darkness (halt), recovers in light (resume); no bypass transitions.
	cfg := testConfig(t, &FixedPoint{Supply: 0.55})
	cfg.Irradiance = func(tt float64) float64 {
		if math.Mod(tt, 30e-3) < 15e-3 {
			return 1.0
		}
		return 0
	}
	cfg.MaxTime = 90e-3
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var halts, resumes int
	prev, last := -1.0, ""
	for _, ev := range rec.Events() {
		if ev.Time < prev {
			t.Fatal("events out of order")
		}
		prev = ev.Time
		switch ev.Kind {
		case "circuit.halt":
			halts++
		case "circuit.resume":
			resumes++
		case "circuit.bypass-on", "circuit.bypass-off":
			t.Fatalf("unexpected bypass transition %+v", ev)
		default:
			continue
		}
		// Halt and resume alternate.
		if ev.Kind == last {
			t.Fatalf("two %s events in a row", ev.Kind)
		}
		last = ev.Kind
	}
	if halts < 2 || resumes < 1 {
		t.Errorf("got %d halts / %d resumes, want a few of each", halts, resumes)
	}
}

func TestClockQuantization(t *testing.T) {
	// Levels given unsorted; commands snap down to the grid.
	cfg := testConfig(t, &FixedPoint{Supply: 0.55, Frequency: 250e6})
	cfg.ClockLevels = []float64{400e6, 100e6, 200e6, 300e6}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A 250 MHz command on a 100/200/300/400 grid runs at 200 MHz.
	want := 200e6 * out.Duration
	if math.Abs(out.CyclesDone-want)/want > 0.01 {
		t.Errorf("cycles %.4g, want ~%.4g (snapped to 200 MHz)", out.CyclesDone, want)
	}

	// A command below the lowest level gates the clock entirely.
	cfg2 := testConfig(t, &FixedPoint{Supply: 0.55, Frequency: 50e6})
	cfg2.ClockLevels = []float64{100e6, 200e6}
	sim2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out2.CyclesDone != 0 {
		t.Errorf("sub-grid command executed %.3g cycles, want 0", out2.CyclesDone)
	}

	// Continuous clock (no levels) is unchanged.
	cfg3 := testConfig(t, &FixedPoint{Supply: 0.55, Frequency: 250e6})
	sim3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := sim3.Run()
	if err != nil {
		t.Fatal(err)
	}
	want3 := 250e6 * out3.Duration
	if math.Abs(out3.CyclesDone-want3)/want3 > 0.01 {
		t.Errorf("continuous clock cycles %.4g, want ~%.4g", out3.CyclesDone, want3)
	}
}

func TestQuantizedMPPTStillTracks(t *testing.T) {
	// The time-based tracker's proportional loop must still hold the node
	// near the MPP with a realistic 16-level clock generator.
	cfg := testConfig(t, &FixedPoint{Supply: 0.55})
	_ = cfg
	cell := pv.NewCell()
	proc := cpu.NewProcessor()
	vmpp, pmpp := cell.MPP(1.0)
	storage, err := cap.New(100e-6, vmpp, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]float64, 16)
	for i := range levels {
		levels[i] = float64(i+1) * 30e6 // 30..480 MHz grid
	}
	// A minimal inline tracker: proportional frequency loop toward the MPP.
	ctl := &propTracker{target: vmpp, freq: 300e6}
	sim, err := New(Config{
		Cell:        cell,
		Proc:        proc,
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  ConstantIrradiance(1.0),
		Controller:  ctl,
		ClockLevels: levels,
		Step:        2e-6,
		MaxTime:     40e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.FinalCapVoltage-vmpp) > 0.12 {
		t.Errorf("quantized tracker settled at %.3f V, MPP %.3f V", out.FinalCapVoltage, vmpp)
	}
	if avg := out.EnergyHarvested / out.Duration; avg < 0.8*pmpp {
		t.Errorf("quantized tracker harvests %.3g W, want >= 80%% of MPP %.3g W", avg, pmpp)
	}
}

// propTracker is a minimal proportional MPP-holding controller for tests.
type propTracker struct {
	target float64
	freq   float64
}

func (p *propTracker) Init(s *State) {
	s.SetBypass(false)
	s.SetSupply(0.55)
	s.SetFrequency(p.freq)
}

func (p *propTracker) OnStep(s *State) {
	err := s.CapVoltage() - p.target
	p.freq *= 1 + 2000*err*s.Step()
	if p.freq < 10e6 {
		p.freq = 10e6
	}
	s.SetFrequency(p.freq)
}

func (p *propTracker) OnThreshold(*State, ThresholdEvent) {}
