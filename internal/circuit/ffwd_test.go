package circuit

// Differential parity suite for event-horizon fast-forward: every test
// runs the same physics twice — verbatim (NoFastForward) and with
// fast-forward enabled — and requires the outcomes, waveforms, recorded
// events and mid-run progress to be identical, bit for bit. The only
// permitted difference is the circuit.ffwd trace instants and the
// StepsSkipped counter, which exist only on the fast-forwarded run. Each
// case repeats the pair with an energy ledger attached: the skip's
// dead-time credit must leave every ledger bin with the verbatim bits,
// and the profiled run must still skip.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cap"
	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
	"repro/internal/trace"
)

// ffwdConfig builds a run over the given event source. A fresh capacitor
// per call keeps runs independent (Storage is stateful).
func ffwdConfig(t testing.TB, src EventSource, v0, aux float64, traceEvery int, maxTime float64) Config {
	t.Helper()
	storage, err := cap.New(100e-6, v0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cell:             pv.NewCell(),
		Proc:             cpu.NewProcessor(),
		Reg:              reg.NewSC(),
		Cap:              storage,
		IrradianceSource: src,
		Controller:       &FixedPoint{Supply: 0.5},
		Step:             2e-5,
		MaxTime:          maxTime,
		TraceEvery:       traceEvery,
	}
	if aux > 0 {
		cfg.AuxLoad = func(float64) float64 { return aux }
	}
	return cfg
}

// ffwdRun is everything one run exposes, for byte-for-byte comparison.
type ffwdRun struct {
	out    Outcome
	wave   *Trace
	prog   Progress
	events []trace.Event
	led    *prof.Ledger // nil unless the run was profiled
}

// runOnce executes cfg with the given fast-forward setting, a fresh
// ledger attached when profiled, and collects its observables. The
// recorded event stream excludes circuit.ffwd instants, the one
// deliberate difference between the modes.
func runOnce(t *testing.T, cfg Config, noFF, profiled bool) ffwdRun {
	t.Helper()
	cfg.NoFastForward = noFF
	if profiled {
		cfg.Ledger = new(prof.Ledger)
	}
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return collectRun(sim, out, rec, cfg.Ledger)
}

// collectRun snapshots a finished run's observables.
func collectRun(sim *Simulator, out *Outcome, rec *trace.Recorder, led *prof.Ledger) ffwdRun {
	r := ffwdRun{out: *out, wave: out.Trace, prog: sim.Progress(), led: led}
	r.out.Trace = nil
	r.events = normalizeEvents(rec.Events())
	return r
}

// ledgerDiff names the first bin whose seconds or joules differ between
// two ledgers, bitwise, or returns "" when they are identical.
func ledgerDiff(a, b *prof.Ledger) string {
	for i := 0; i < prof.NumBins; i++ {
		bin := prof.Bin(i)
		if math.Float64bits(a.Seconds[i]) != math.Float64bits(b.Seconds[i]) {
			return fmt.Sprintf("%s seconds %v != %v", bin, a.Seconds[i], b.Seconds[i])
		}
		if math.Float64bits(a.Joules[i]) != math.Float64bits(b.Joules[i]) {
			return fmt.Sprintf("%s joules %v != %v", bin, a.Joules[i], b.Joules[i])
		}
	}
	return ""
}

// runModes runs the config mk builds (fresh per run: Storage is stateful)
// verbatim and fast-forwarded, each without and with a ledger. It asserts
// parity within each pair and that profiling moved no simulated output,
// and returns the unprofiled verbatim and fast-forwarded runs plus the
// profiled fast-forwarded one.
func runModes(t *testing.T, mk func() Config) (verbatim, ffwd, pffwd ffwdRun) {
	t.Helper()
	verbatim = runOnce(t, mk(), true, false)
	ffwd = runOnce(t, mk(), false, false)
	assertParity(t, verbatim, ffwd)
	pverbatim := runOnce(t, mk(), true, true)
	pffwd = runOnce(t, mk(), false, true)
	assertParity(t, pverbatim, pffwd)
	assertParity(t, verbatim, pffwd)
	return verbatim, ffwd, pffwd
}

// normalizeEvents drops circuit.ffwd instants (the one deliberate
// difference between the modes) and zeroes sequence numbers: skipped-run
// events sit at different positions in the recorder's stream because the
// ffwd instants in between consumed sequence slots.
func normalizeEvents(events []trace.Event) []trace.Event {
	kept := trace.Filter(events, func(ev trace.Event) bool {
		return ev.Kind != "circuit.ffwd"
	})
	out := make([]trace.Event, len(kept))
	for i, ev := range kept {
		ev.Seq = 0
		out[i] = ev
	}
	return out
}

// assertParity requires the verbatim and fast-forwarded observables to be
// identical except for the skip accounting; when both runs were profiled,
// their ledgers must match bin by bin, bitwise.
func assertParity(t *testing.T, verbatim, ffwd ffwdRun) {
	t.Helper()
	if verbatim.led != nil && ffwd.led != nil {
		if d := ledgerDiff(verbatim.led, ffwd.led); d != "" {
			t.Errorf("ledgers differ: verbatim vs ffwd %s", d)
		}
	}
	if !reflect.DeepEqual(verbatim.out, ffwd.out) {
		t.Errorf("outcomes differ:\nverbatim: %+v\nffwd:     %+v", verbatim.out, ffwd.out)
	}
	if !reflect.DeepEqual(verbatim.wave, ffwd.wave) {
		t.Errorf("waveforms differ: verbatim %d samples, ffwd %d samples",
			waveLen(verbatim.wave), waveLen(ffwd.wave))
	}
	if !reflect.DeepEqual(verbatim.events, ffwd.events) {
		t.Errorf("trace events differ (after removing circuit.ffwd): verbatim %d, ffwd %d",
			len(verbatim.events), len(ffwd.events))
	}
	pgv, pgf := verbatim.prog, ffwd.prog
	pgf.StepsSkipped = 0 // the one permitted difference
	if !reflect.DeepEqual(pgv, pgf) {
		t.Errorf("progress differs:\nverbatim: %+v\nffwd:     %+v", pgv, pgf)
	}
	if verbatim.prog.StepsSkipped != 0 {
		t.Errorf("verbatim run skipped %d steps, want 0", verbatim.prog.StepsSkipped)
	}
}

func waveLen(tr *Trace) int {
	if tr == nil {
		return -1
	}
	return len(tr.Samples)
}

// TestFastForwardParityDarkCollapse drives a node into the vcap == 0
// fixed point (an aux load keeps draining after the light steps to zero)
// and requires bit parity plus a nonzero skip count.
func TestFastForwardParityDarkCollapse(t *testing.T) {
	for _, traceEvery := range []int{0, 1, 7} {
		src := StepSource{Before: 1.0, After: 0, T0: 0.02}
		verbatim, ffwd, pffwd := runModes(t, func() Config {
			return ffwdConfig(t, src, 1.2, 0.4e-3, traceEvery, 0.4)
		})
		// traceEvery == 1 records a sample on every step, so nothing is
		// skippable by design; the other settings must actually skip.
		if traceEvery != 1 && ffwd.prog.StepsSkipped == 0 {
			t.Errorf("traceEvery=%d: dark-collapse run skipped no steps", traceEvery)
		}
		if traceEvery != 1 && pffwd.prog.StepsSkipped == 0 {
			t.Errorf("traceEvery=%d: profiled dark-collapse run skipped no steps", traceEvery)
		}
		if got, want := ffwd.prog.Steps, verbatim.prog.Steps; got != want {
			t.Errorf("traceEvery=%d: step counters differ: ffwd %d, verbatim %d", traceEvery, got, want)
		}
	}
}

// TestFastForwardStepToResume advances the fast-forwarded run in
// irregular StepTo increments while the verbatim reference runs in one
// shot; interleaving StepTo boundaries with skip spans must not change a
// bit. StepsSkipped must also keep Steps consistent across the calls.
func TestFastForwardStepToResume(t *testing.T) {
	src := StepSource{Before: 1.0, After: 0, T0: 0.02}
	for _, profiled := range []bool{false, true} {
		cfg := ffwdConfig(t, src, 1.2, 0.4e-3, 3, 0.4)
		verbatim := runOnce(t, cfg, true, profiled)

		cfg = ffwdConfig(t, src, 1.2, 0.4e-3, 3, 0.4)
		if profiled {
			cfg.Ledger = new(prof.Ledger)
		}
		rec := trace.NewRecorder()
		cfg.Tracer = rec
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.013, 0.0401, 0.09, 0.17, 0.171, 0.33, 1.1} {
			if _, err := sim.StepTo(frac * cfg.MaxTime); err != nil {
				t.Fatal(err)
			}
		}
		out, err := sim.Run() // finish whatever remains
		if err != nil {
			t.Fatal(err)
		}
		ffwd := collectRun(sim, out, rec, cfg.Ledger)
		assertParity(t, verbatim, ffwd)
		if ffwd.prog.StepsSkipped == 0 {
			t.Errorf("profiled=%v: resumed run skipped no steps", profiled)
		}
	}
}

// TestFastForwardPropertyParity is the randomized differential test:
// arbitrary piecewise-constant irradiance plans (with exact-zero spans),
// with and without an aux load and waveform tracing. Fast-forward must be
// invisible everywhere.
func TestFastForwardPropertyParity(t *testing.T) {
	const horizon = 0.12
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Piecewise-constant plan: segments hold exact values, about half
		// of them exactly zero so inert spans actually occur.
		n := 1 + rng.Intn(6)
		times := make([]float64, n)
		levels := make([]float64, n)
		at := 0.0
		for i := range times {
			times[i] = at
			at += rng.Float64() * horizon / 3
			if rng.Intn(2) == 0 {
				levels[i] = 0
			} else {
				levels[i] = rng.Float64() * 1.2
			}
		}
		src := PiecewiseConstSource{Times: times, Levels: levels}

		aux := 0.0
		if rng.Intn(2) == 0 {
			aux = 0.2e-3 + rng.Float64()*0.4e-3
		}
		traceEvery := 0
		if rng.Intn(2) == 0 {
			traceEvery = 1 + rng.Intn(9)
		}
		v0 := 0.3 + rng.Float64()*1.2

		ok := true
		for _, profiled := range []bool{false, true} {
			cfg := ffwdConfig(t, src, v0, aux, traceEvery, horizon)
			verbatim := runOnce(t, cfg, true, profiled)
			cfg = ffwdConfig(t, src, v0, aux, traceEvery, horizon)
			ffwd := runOnce(t, cfg, false, profiled)

			if !reflect.DeepEqual(verbatim.out, ffwd.out) ||
				!reflect.DeepEqual(verbatim.wave, ffwd.wave) ||
				!reflect.DeepEqual(verbatim.events, ffwd.events) {
				t.Logf("seed %d profiled=%v: parity broken\nverbatim: %+v\nffwd:     %+v (skipped %d)",
					seed, profiled, verbatim.out, ffwd.out, ffwd.prog.StepsSkipped)
				ok = false
			}
			if profiled {
				if d := ledgerDiff(verbatim.led, ffwd.led); d != "" {
					t.Logf("seed %d: ledgers differ (skipped %d): %s", seed, ffwd.prog.StepsSkipped, d)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEventSourceContracts cross-checks every EventSource against its
// closure twin (bitwise, on a dense grid) and verifies the NextChange
// constancy promise by sampling inside each claimed span.
func TestEventSourceContracts(t *testing.T) {
	day := DaySource{Sunrise: 0.01, Sunset: 0.05, Peak: 0.9}
	pw := PiecewiseConstSource{Times: []float64{0, 0.01, 0.02, 0.05}, Levels: []float64{0, 0.8, 0, 0.3}}
	cases := []struct {
		name    string
		src     EventSource
		closure func(float64) float64
	}{
		{"constant", Constant{Level: 0.7}, ConstantIrradiance(0.7)},
		{"step", StepSource{Before: 1, After: 0, T0: 0.03}, StepIrradiance(1, 0, 0.03)},
		{"day", day, DayIrradiance(day.Sunrise, day.Sunset, day.Peak)},
		{"piecewise-const", pw, pw.At},
	}
	for _, tc := range cases {
		for i := 0; i <= 7000; i++ {
			tt := float64(i) * 1e-5
			if got, want := tc.src.At(tt), tc.closure(tt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: At(%g) = %g, closure %g", tc.name, tt, got, want)
			}
			next := tc.src.NextChange(tt)
			if next <= tt {
				continue // no claim
			}
			v := tc.src.At(tt)
			end := next
			if math.IsInf(end, 1) {
				end = 0.2
			}
			for k := 1; k <= 8; k++ {
				probe := tt + (end-tt)*float64(k)/8.5 // strictly inside [tt, next)
				if got := tc.src.At(probe); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s: NextChange(%g) = %g but At(%g) = %g != At(%g) = %g",
						tc.name, tt, next, probe, got, tt, v)
				}
			}
		}
	}
}

// TestFastForwardSkipAllocations pins the skip path at zero allocations,
// with and without a ledger taking the dead-time credit: lengthening the
// provably-inert tail of a dark run, whose aux load drains the node to
// 0 V within the first 0.1 s, must not add any.
func TestFastForwardSkipAllocations(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		var led prof.Ledger
		run := func(maxTime float64) float64 {
			return testing.AllocsPerRun(5, func() {
				cfg := ffwdConfig(t, Constant{}, 0.5, 0.4e-3, 0, maxTime)
				if profiled {
					cfg.Ledger = &led
				}
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				if sim.Progress().StepsSkipped == 0 {
					t.Fatal("dark run skipped no steps; the skip path is not under test")
				}
			})
		}
		const shortTime, longTime = 0.1, 1.0
		short := run(shortTime)
		long := run(longTime)
		steps := (longTime - shortTime) / 2e-5
		if perStep := (long - short) / steps; perStep > 0.01 {
			t.Errorf("profiled=%v: skip path allocates %.4f/step (short=%.0f long=%.0f), want 0",
				profiled, perStep, short, long)
		}
	}
}
