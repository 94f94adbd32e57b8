package fleet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/reg"
)

// darkSpec has a 70% lights-out tail: most of the horizon is exactly-zero
// sky on every node, the regime event-horizon fast-forward exists for.
const darkSpec = "n=24,seed=11,horizon=0.02,epoch=1e-3,step=2e-5,dark=0.7"

// darkTailSpec is long enough for nodes to drain to the collapse fixed
// point inside the dark tail, so skipping dominates the stepping.
const darkTailSpec = "n=16,seed=11,horizon=0.3,epoch=0.01,step=2e-4,dark=0.9"

// renderFleetFF renders the spec with an explicit fast-forward setting.
func renderFleetFF(t *testing.T, specText string, workers int, noFF bool) []byte {
	t.Helper()
	spec, err := ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Workers = workers
	cfg.NoFastForward = noFF
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Report(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetDarkSpecRoundTrip pins the dark knob's canonical-string and
// validation behavior: dark specs round-trip, dark-free canonical strings
// are unchanged from before the knob existed (stable cache keys), and
// out-of-range values are rejected.
func TestFleetDarkSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec(darkSpec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dark != 0.7 {
		t.Errorf("parsed dark = %g, want 0.7", spec.Dark)
	}
	if got, want := spec.String(), "n=24,seed=11,horizon=0.02,epoch=0.001,step=2e-05,dark=0.7"; got != want {
		t.Errorf("canonical string: %q != %q", got, want)
	}
	reparsed, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed != spec {
		t.Errorf("reparse: %+v != %+v", reparsed, spec)
	}

	plain, err := ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	// The exact pre-dark canonical form: existing cache keys must not move.
	if got, want := plain.String(), "n=24,seed=11,horizon=0.02,epoch=0.001,step=2e-05"; got != want {
		t.Errorf("dark-free canonical string changed: %q != %q", got, want)
	}

	for _, bad := range []string{"n=4,dark=1.5", "n=4,dark=-0.1", "n=4,dark=NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted an out-of-range dark", bad)
		}
	}
}

// TestFleetFastForwardParity is the fleet half of the ffwd differential
// contract: report bytes are identical with fast-forward on and off, at
// every worker count — lane windows of 24, 6, 5 and 1 nodes — on both
// dark and ordinary specs.
func TestFleetFastForwardParity(t *testing.T) {
	for _, specText := range []string{darkSpec, testSpec} {
		ref := renderFleetFF(t, specText, 1, true) // verbatim reference
		for _, workers := range []int{1, 4, 5, 24} {
			for _, noFF := range []bool{false, true} {
				got := renderFleetFF(t, specText, workers, noFF)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s workers=%d noFF=%v: report differs from verbatim reference",
						specText, workers, noFF)
				}
			}
		}
	}
}

// TestFleetProfileFastForwardParity: a profiled dark fleet keeps the
// fast path, and the skipped spans' dead-time credit leaves the profile
// bytes — and the report bytes — exactly those of the verbatim scalar run
// (16 workers, one lane each) at every worker count: lane windows of 16,
// 6, 4 and 1 nodes.
func TestFleetProfileFastForwardParity(t *testing.T) {
	refProf, refRep := profiledFleet(t, darkTailSpec, 16, true)
	if plain := renderFleetFF(t, darkTailSpec, 16, true); !bytes.Equal(refRep, plain) {
		t.Error("profiling changed the report bytes")
	}
	for _, workers := range []int{1, 3, 4, 16} {
		for _, noFF := range []bool{false, true} {
			p, r := profiledFleet(t, darkTailSpec, workers, noFF)
			if !bytes.Equal(p, refProf) {
				t.Errorf("workers=%d noFF=%v: profile bytes differ from verbatim reference", workers, noFF)
			}
			if !bytes.Equal(r, refRep) {
				t.Errorf("workers=%d noFF=%v: report bytes differ from verbatim reference", workers, noFF)
			}
		}
	}
}

// darkSkips runs the dark-tail fleet through the engine (same package)
// and returns the population's skipped and total step counts.
func darkSkips(t *testing.T, profiled, noFF bool) (skipped, total int) {
	t.Helper()
	spec, err := ParseSpec(darkTailSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config().withDefaults()
	cfg.NoFastForward = noFF
	if profiled {
		cfg.Profile = prof.New()
	}
	_, lanes, err := schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sim := range lanes {
		p := sim.Progress()
		skipped += p.StepsSkipped
		total += p.Steps
	}
	return skipped, total
}

// TestFleetDarkActuallySkips verifies the dark fleet really exercises the
// skip path, profiled or not: with fast-forward on, the population's
// skipped-step total must be a large share of the dark tail, and the
// verbatim run must skip nothing.
func TestFleetDarkActuallySkips(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		skipped, total := darkSkips(t, profiled, false)
		if skipped == 0 {
			t.Fatalf("profiled=%v: dark fleet skipped no steps; the fast-forward path is dead", profiled)
		}
		if frac := float64(skipped) / float64(total); frac < 0.2 {
			t.Errorf("profiled=%v: only %.1f%% of %d steps skipped; dark tail should dominate",
				profiled, 100*frac, total)
		}
		if skipped, _ := darkSkips(t, profiled, true); skipped != 0 {
			t.Errorf("profiled=%v: verbatim fleet skipped %d steps", profiled, skipped)
		}
	}
}

// TestFleetDarkTailIsExactlyZero guards the knob's physics: the zeroed
// tail must be bitwise zero (not merely small), or the provably-dark
// fixed point never forms.
func TestFleetDarkTailIsExactlyZero(t *testing.T) {
	spec, err := ParseSpec(darkSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config().withDefaults()
	ccfg, err := buildNodeConfig(cfg, 0, pv.NewCell(), cpu.NewProcessor(), reg.NewSC())
	if err != nil {
		t.Fatal(err)
	}
	cut := (1 - cfg.Dark) * cfg.Horizon
	src := ccfg.IrradianceSource
	// Exact zeros start one sample interval past the cut: the sample just
	// before the first zeroed one is still bright, and interpolation
	// touching it is nonzero. From the next all-zero pair on, At must be
	// bitwise +0.
	sampleStep := cfg.Horizon / 256
	for _, tt := range []float64{cut + 2*sampleStep, cfg.Horizon * 0.9, cfg.Horizon} {
		if bits := math.Float64bits(src.At(tt)); bits != 0 {
			t.Errorf("sky at t=%g has bits %x, want exact +0", tt, bits)
		}
	}
	if v := src.At(cut / 4); v <= 0 {
		t.Errorf("sky before the cut is %g, want > 0 (the head must stay lit)", v)
	}
}
