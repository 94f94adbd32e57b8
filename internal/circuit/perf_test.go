package circuit

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/pv"
	"repro/internal/reg"
)

func TestClockLevelValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []float64
	}{
		{"nan", []float64{1e6, math.NaN()}},
		{"inf", []float64{math.Inf(1)}},
		{"negative", []float64{10e6, -1}},
	}
	for _, tc := range cases {
		cfg := testConfig(t, &FixedPoint{Supply: 0.5})
		cfg.ClockLevels = tc.levels
		if _, err := New(cfg); !errors.Is(err, ErrInvalidClockLevel) {
			t.Errorf("%s: got %v, want ErrInvalidClockLevel", tc.name, err)
		}
	}
}

// TestSimulatorSize pins a Simulator's bytes: a population's slab lays one
// out per fleet or scenario node, so every byte counts once per node, not
// in a size class.
func TestSimulatorSize(t *testing.T) {
	if n := unsafe.Sizeof(Simulator{}); n > 696 {
		t.Errorf("Simulator is %d B, want at most 696", n)
	}
}

// quantizeReference is the semantics quantizeClock must preserve: the highest
// configured level at or below the command, zero when the command is below
// every level, and a pass-through for empty configs or non-positive commands.
func quantizeReference(levels []float64, f float64) float64 {
	if len(levels) == 0 || f <= 0 {
		return f
	}
	best := 0.0
	for _, l := range levels {
		if l <= f && l > best {
			best = l
		}
	}
	return best
}

func TestQuantizeClockMatchesReference(t *testing.T) {
	// Deliberately unsorted with duplicates and a zero level; New must
	// sort and deduplicate so the binary search agrees with a linear scan
	// over the raw input.
	raw := []float64{80e6, 10e6, 40e6, 10e6, 0, 120e6, 40e6}
	cfg := testConfig(t, &FixedPoint{Supply: 0.5})
	cfg.ClockLevels = raw
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := &sim.state
	sorted := st.cfg.ClockLevels
	for i := 1; i < len(sorted); i++ {
		if sorted[i] <= sorted[i-1] {
			t.Fatalf("levels not sorted/deduplicated: %v", sorted)
		}
	}
	probes := []float64{-1, 0, 1, 5e6, 10e6, 10e6 + 1, 39e6, 40e6, 79e6, 80e6, 100e6, 120e6, 1e9, math.Inf(1)}
	for _, f := range probes {
		if got, want := st.quantizeClock(f), quantizeReference(raw, f); got != want {
			t.Errorf("quantizeClock(%g) = %g, want %g", f, got, want)
		}
	}
}

// allocRunConfig builds a config whose only free parameter is the horizon so
// two runs of different lengths isolate the per-step allocation count.
func allocRunConfig(t testing.TB, maxTime float64, traceEvery int) Config {
	t.Helper()
	storage, err := cap.New(100e-6, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Cell:        pv.NewCell(),
		Proc:        cpu.NewProcessor(),
		Reg:         reg.NewSC(),
		Cap:         storage,
		Irradiance:  ConstantIrradiance(1.0),
		Controller:  &FixedPoint{Supply: 0.5},
		ClockLevels: []float64{10e6, 20e6, 40e6, 80e6},
		Step:        5e-6,
		MaxTime:     maxTime,
		TraceEvery:  traceEvery,
	}
}

func runAllocs(t *testing.T, maxTime float64, traceEvery int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		cfg := allocRunConfig(t, maxTime, traceEvery)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepLoopAllocations pins the steady-state step loop at zero allocations
// per step. Setup cost (New, the capacitor, the pre-sized waveform slice) is
// identical for both horizons, so the difference between a long and a short
// run divides out everything but the per-step cost.
func TestStepLoopAllocations(t *testing.T) {
	const shortSteps, longSteps = 400, 4000
	short := runAllocs(t, shortSteps*5e-6, 0)
	long := runAllocs(t, longSteps*5e-6, 0)
	if perStep := (long - short) / (longSteps - shortSteps); perStep > 0.01 {
		t.Errorf("untraced loop allocates %.3f/step (short=%.0f long=%.0f), want 0",
			perStep, short, long)
	}

	// Waveform tracing appends into a slice pre-sized by Run, so the traced
	// loop adds only a constant number of allocations per run (the slice
	// itself), never per step. Event tracing through a non-nil Tracer is
	// allowed a small per-event cost (trace.Args maps) and is exercised by
	// the trace golden tests, not pinned here.
	shortTr := runAllocs(t, shortSteps*5e-6, 1)
	longTr := runAllocs(t, longSteps*5e-6, 1)
	if perStep := (longTr - shortTr) / (longSteps - shortSteps); perStep > 0.01 {
		t.Errorf("waveform-traced loop allocates %.3f/step (short=%.0f long=%.0f), want 0",
			perStep, shortTr, longTr)
	}
}

// BenchmarkCircuitStep measures the steady-state cost of one simulation step
// (PV solve + regulator + integration + controller) with no tracing.
func BenchmarkCircuitStep(b *testing.B) {
	const steps = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := allocRunConfig(b, steps*5e-6, 0)
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}
