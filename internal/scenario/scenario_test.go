package scenario

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/prof"
	"repro/internal/pv"
	"repro/internal/trace"
	"repro/internal/weather"
)

// demoSpec composes a kinetic harvester with Poisson radio arrivals over a
// small population — the acceptance scenario of the determinism criteria.
const demoSpec = `{"name":"demo","seed":9,` +
	`"source":{"kind":"kinetic","rate_hz":8,"impulse":0.5,"decay_s":0.2},` +
	`"workload":{"job_cycles":5e6,"aux_w":5e-5},"geometry":{"nodes":4,"horizon_s":1,"step_s":1e-4}}`

// render runs the spec text and returns the report bytes.
func render(t *testing.T, specText string, workers int) []byte {
	t.Helper()
	spec, err := ParseScenario([]byte(specText))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Spec: spec, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Report(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderProfiled runs the spec text with profiling on and returns the
// report and pprof bytes.
func renderProfiled(t *testing.T, specText string, workers int) ([]byte, []byte) {
	t.Helper()
	spec, err := ParseScenario([]byte(specText))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: spec, Workers: workers, Profile: prof.New(), ProfileScope: "scenario"}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile.Len() == 0 {
		t.Fatal("profile is empty")
	}
	var rb, pb bytes.Buffer
	if err := rep.Report(&rb); err != nil {
		t.Fatal(err)
	}
	if err := prof.WritePprof(&pb, cfg.Profile); err != nil {
		t.Fatal(err)
	}
	return rb.Bytes(), pb.Bytes()
}

// TestWorkerBatchParity is the scenario half of the repo's signature
// invariant: report and profile bytes must not depend on the worker count
// or on the lane windows it cuts the four nodes into — one window of
// four, two of two, four single lanes, or more workers than lanes — and
// profiling must not perturb the report.
func TestWorkerBatchParity(t *testing.T) {
	ref := render(t, demoSpec, 1)
	_, refProf := renderProfiled(t, demoSpec, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		if got := render(t, demoSpec, workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: report differs from the workers=1 reference:\n%s\n-- vs --\n%s",
				workers, got, ref)
		}
		rep, p := renderProfiled(t, demoSpec, workers)
		if !bytes.Equal(rep, ref) {
			t.Errorf("workers=%d: profiling changed the report bytes", workers)
		}
		if !bytes.Equal(p, refProf) {
			t.Errorf("workers=%d: profile bytes differ from the workers=1 reference", workers)
		}
	}
}

// TestRunDeterminismBySeed: same spec twice is byte-identical; a different
// seed changes the bytes.
func TestRunDeterminismBySeed(t *testing.T) {
	a := render(t, demoSpec, 4)
	b := render(t, demoSpec, 4)
	if !bytes.Equal(a, b) {
		t.Error("same-spec runs differ")
	}
	other := render(t, strings.Replace(demoSpec, `"seed":9`, `"seed":10`, 1), 4)
	if bytes.Equal(a, other) {
		t.Error("different seeds produced identical reports")
	}
}

// TestStringRoundTrip: for a swath of specs, ParseScenario(spec.String())
// is the identity and String() is stable across the round trip — the
// property that makes canonical strings safe cache keys.
func TestStringRoundTrip(t *testing.T) {
	for _, text := range []string{
		`{}`,
		demoSpec,
		`{"source":{"kind":"indoor","start_stage":1},"workload":{"arrivals":{"process":"none"}}}`,
		`{"source":{"kind":"cloudy","level":0.5},"workload":{"arrivals":{"process":"weibull","shape":0.8}}}`,
		`{"source":{"kind":"clearsky","peak":0.9,"sunrise_frac":0.2,"sunset_frac":0.7}}`,
		`{"source":{"kind":"trace","path":"recorded.json"}}`,
		`{"workload":{"arrivals":{"process":"gamma","rate_hz":12,"payload_bytes":64}}}`,
	} {
		spec, err := ParseScenario([]byte(text))
		if err != nil {
			t.Fatalf("ParseScenario(%s): %v", text, err)
		}
		back, err := ParseScenario([]byte(spec.String()))
		if err != nil {
			t.Fatalf("reparse of %q: %v", spec.String(), err)
		}
		if back != spec {
			t.Errorf("round trip changed the spec:\n%+v\n%+v", spec, back)
		}
		if back.String() != spec.String() {
			t.Errorf("canonical form unstable: %q != %q", back.String(), spec.String())
		}
	}
}

// TestParseScenarioRejects covers the front-door validation.
func TestParseScenarioRejects(t *testing.T) {
	for _, bad := range []string{
		``,
		`not json`,
		`{"bogus":1}`,                  // unknown field
		`{} {}`,                        // trailing document
		`{"seed":1}}`,                  // stray closing brace after a valid spec
		`{"seed":1}]`,                  // stray closing bracket after a valid spec
		`{"version":99}`,               // future schema
		`{"source":{"kind":"fusion"}}`, // unknown kind
		`{"source":{"kind":"bench","level":-1}}`,
		`{"source":{"kind":"bench","level":1e30}}`,
		`{"source":{"kind":"trace"}}`, // missing path
		`{"source":{"kind":"clearsky","sunrise_frac":0.9,"sunset_frac":0.2}}`,
		`{"source":{"kind":"kinetic","jitter":1.5}}`,
		`{"source":{"kind":"indoor","start_stage":9}}`,
		// A field another kind reads: the run would be cached under a
		// second canonical form.
		`{"source":{"kind":"bench","level":1,"rate_hz":5,"peak":3,"path":"/x"}}`,
		`{"source":{"kind":"bench","peak":3}}`,
		`{"source":{"kind":"clearsky","level":0.5}}`,
		`{"source":{"kind":"cloudy","jitter":0.1}}`,
		`{"source":{"kind":"kinetic","start_stage":1}}`,
		`{"source":{"kind":"indoor","decay_s":0.1}}`,
		`{"source":{"kind":"trace","path":"x.json","level":1}}`,
		`{"source":{"kind":"indoor","start_stage":1,"sunset_frac":0.5}}`,
		`{"workload":{"job_cycles":-5}}`,
		`{"workload":{"deadline_frac":1.5}}`,
		`{"workload":{"arrivals":{"process":"uniform"}}}`,
		`{"workload":{"arrivals":{"process":"poisson","shape":2}}}`,
		`{"workload":{"arrivals":{"process":"none","rate_hz":3}}}`,
		`{"workload":{"arrivals":{"process":"gamma","payload_bytes":4096}}}`,
		`{"geometry":{"nodes":-1}}`,
		`{"geometry":{"nodes":1000000000}}`,
		`{"geometry":{"horizon_s":-2}}`,
		`{"geometry":{"horizon_s":0.001,"step_s":1}}`, // step > horizon
		// Expected impulses, and arrivals per node, at or past weather.MaxSamples.
		`{"source":{"kind":"kinetic","rate_hz":1e12},"geometry":{"horizon_s":0.5,"step_s":1e-4}}`,
		`{"workload":{"arrivals":{"process":"poisson","rate_hz":1e6}},"geometry":{"horizon_s":300,"step_s":0.1}}`,
	} {
		if _, err := ParseScenario([]byte(bad)); err == nil {
			t.Errorf("ParseScenario(%s) accepted", bad)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseScenario(%s) returned %v, want ErrBadSpec", bad, err)
		}
	}
}

// TestSourceTraceRejectsHugeGeometry: a valid spec whose horizon/step
// quotient is at or above weather.MaxSamples gets ErrBadTrace from every
// source kind. The bench source sized its trace without the check and
// panicked in make (1e300 s is beyond int range, 1e13/0.005 beyond make's
// byte limit). Arrivals are off and the kinetic rate is tiny, so the
// spec's event bound, which such horizons trip at the default rates, lets
// the specs through to the trace.
func TestSourceTraceRejectsHugeGeometry(t *testing.T) {
	for _, source := range []string{
		`{"kind":"bench","level":1}`,
		`{"kind":"clearsky"}`,
		`{"kind":"cloudy"}`,
		`{"kind":"kinetic","rate_hz":1e-300}`,
		`{"kind":"indoor"}`,
	} {
		for _, geometry := range []string{`{"horizon_s":1e300}`, `{"horizon_s":1e13,"step_s":0.005}`} {
			text := `{"source":` + source + `,"workload":{"arrivals":{"process":"none"}},"geometry":` + geometry + `}`
			spec, err := ParseScenario([]byte(text))
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if _, err := spec.SourceTrace(); !errors.Is(err, weather.ErrBadTrace) {
				t.Errorf("%s: SourceTrace returned %v, want ErrBadTrace", text, err)
			}
			if _, err := Run(Config{Spec: spec, Workers: 1}); !errors.Is(err, weather.ErrBadTrace) {
				t.Errorf("%s: Run returned %v, want ErrBadTrace", text, err)
			}
		}
	}
}

// TestValidateRejectsNaN: JSON cannot spell NaN/Inf, but a hand-built Spec
// can — Validate must catch what ParseScenario never sees. This is the
// same `NaN <= 0` trap the fleet spec fix closed.
func TestValidateRejectsNaN(t *testing.T) {
	base := func() Spec {
		spec, err := ParseScenario([]byte(demoSpec))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for name, mutate := range map[string]func(*Spec){
		"NaN horizon":  func(s *Spec) { s.Geometry.HorizonS = math.NaN() },
		"Inf horizon":  func(s *Spec) { s.Geometry.HorizonS = math.Inf(1) },
		"NaN step":     func(s *Spec) { s.Geometry.StepS = math.NaN() },
		"NaN cycles":   func(s *Spec) { s.Workload.JobCycles = math.NaN() },
		"NaN aux":      func(s *Spec) { s.Workload.AuxW = math.NaN() },
		"NaN rate":     func(s *Spec) { s.Source.RateHz = math.NaN() },
		"NaN arr rate": func(s *Spec) { s.Workload.Arrivals.RateHz = math.NaN() },
		"NaN deadline": func(s *Spec) { s.Workload.DeadlineFrac = math.NaN() },
		"NaN sprint":   func(s *Spec) { s.Workload.Sprint = math.NaN() },
	} {
		spec := base()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRecordReplayByteIdentity is the regression-pinning property the
// trace format exists for: record the demo scenario's rendered source,
// re-run the same spec with the source swapped for the recording, and the
// report bytes must be identical.
func TestRecordReplayByteIdentity(t *testing.T) {
	spec, err := ParseScenario([]byte(demoSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Spec: spec, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var original bytes.Buffer
	if err := rep.Report(&original); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "recorded.json")
	if err := WriteTraceFile(path, rep.SourceSamples()); err != nil {
		t.Fatal(err)
	}

	replay := spec
	replay.Source = Source{Kind: SourceTrace, Path: path}
	rep2, err := Run(Config{Spec: replay, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var replayed bytes.Buffer
	if err := rep2.Report(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original.Bytes(), replayed.Bytes()) {
		t.Errorf("replayed report differs from the original:\n%s\n-- vs --\n%s",
			replayed.String(), original.String())
	}
}

// TestTraceDeterminism checks the scenario.* event stream: valid events
// and byte-level independence from the worker count and its lane windows.
func TestTraceDeterminism(t *testing.T) {
	record := func(workers int) []trace.Event {
		spec, err := ParseScenario([]byte(demoSpec))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		if _, err := Run(Config{Spec: spec, Workers: workers, Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	ref := record(1)
	if err := trace.ValidateAll(ref); err != nil {
		t.Fatal(err)
	}
	if len(ref) < 2 {
		t.Fatalf("only %d events recorded", len(ref))
	}
	for _, workers := range []int{2, 4} {
		if got := record(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("trace events differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestRunCancellation: a cancelled context aborts the run with the
// context's error instead of simulating to the horizon.
func TestRunCancellation(t *testing.T) {
	spec, err := ParseScenario([]byte(demoSpec))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(Config{Spec: spec, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// daySpec is the 1,024-node clear-sky day with gamma radio arrivals that
// e2ebench's scenario_day workload runs (seed 3): the night from 60% of
// the horizon on is exactly dark.
const daySpec = `{"seed":3,` +
	`"source":{"kind":"clearsky","peak":1,"sunrise_frac":0,"sunset_frac":0.6},` +
	`"workload":{"job_cycles":4e6,"deadline_frac":0.4,"aux_w":1e-4,` +
	`"arrivals":{"process":"gamma","rate_hz":4,"shape":0.5}},` +
	`"geometry":{"nodes":1024,"horizon_s":4,"step_s":1e-4}}`

// TestScenarioBuildBytesPerNode pins what rendering the source and
// building the population allocate per node: a cancelled run returns once
// both are done. The day spec measures 3,229 B in 30.2 allocations per
// node, and about 3,260 B under the race detector, since the build no
// longer goes through fmt and its sync.Pool. Per-node cell, processor and
// SC models, an n-long slice of configs beside the lane slab and
// fmt-built labels read 3,760 B in 36.7.
func TestScenarioBuildBytesPerNode(t *testing.T) {
	const bound, allocBound = 3400, 30
	spec, err := ParseScenario([]byte(daySpec))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(Config{Spec: spec, Workers: 2, Ctx: ctx})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	nodes := float64(spec.Geometry.Nodes)
	per := float64(after.TotalAlloc-before.TotalAlloc) / nodes
	allocs := float64(after.Mallocs-before.Mallocs) / nodes
	t.Logf("build: %.0f B and %.2f allocations per node", per, allocs)
	// The run's own allocations, the source's among them, add about 0.2
	// per node.
	if per > bound || int(allocs) > allocBound {
		t.Errorf("building a node allocates %.0f B in %.2f allocations, bound %d B in %d",
			per, allocs, bound, allocBound)
	}
}

// TestScenarioLanesShareModels: every node models the same chip, so every
// lane of a run holds the run's one cell, processor and SC converter, and
// a second run builds its own (no package-level models).
func TestScenarioLanesShareModels(t *testing.T) {
	spec, err := ParseScenario([]byte(demoSpec))
	if err != nil {
		t.Fatal(err)
	}
	var first *pv.Cell
	for k := 0; k < 2; k++ {
		_, lanes, err := run(Config{Spec: spec, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		cell, proc, sc := lanes[0].Models()
		for id, sim := range lanes {
			if c, p, r := sim.Models(); c != cell || p != proc || r != sc {
				t.Fatalf("run %d: node %d holds models %p %p %p, node 0 %p %p %p", k, id, c, p, r, cell, proc, sc)
			}
		}
		if cell == first {
			t.Fatal("two runs share a cell")
		}
		first = cell
	}
}

// TestArrivalProcesses: every process is deterministic by seed and hits
// its configured mean rate within sampling tolerance; gamma/weibull shape
// below one produces burstier (higher-variance) trains than above one.
func TestArrivalProcesses(t *testing.T) {
	const horizon, rate = 2000.0, 5.0
	for _, process := range []string{ArrivalsPoisson, ArrivalsGamma, ArrivalsWeibull} {
		ar := Arrivals{Process: process, RateHz: rate}
		if process != ArrivalsPoisson {
			ar.Shape = 2
		}
		a := arrivalTimes(rand.New(rand.NewSource(3)), ar, horizon)
		b := arrivalTimes(rand.New(rand.NewSource(3)), ar, horizon)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different trains", process)
		}
		got := float64(len(a)) / horizon
		if got < 0.9*rate || got > 1.1*rate {
			t.Errorf("%s: rate %.2f events/s, want ~%g", process, got, rate)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("%s: arrivals not sorted at %d", process, i)
			}
		}
	}
	if got := arrivalTimes(rand.New(rand.NewSource(1)), Arrivals{Process: ArrivalsNone}, horizon); got != nil {
		t.Errorf("none produced %d events", len(got))
	}
	// Burstiness orders with shape: squared coefficient of variation of the
	// inter-arrival times is > 1 below shape 1 and < 1 above it.
	cv2 := func(shape float64) float64 {
		times := arrivalTimes(rand.New(rand.NewSource(5)),
			Arrivals{Process: ArrivalsGamma, RateHz: rate, Shape: shape}, horizon)
		var gaps []float64
		for i := 1; i < len(times); i++ {
			gaps = append(gaps, times[i]-times[i-1])
		}
		var sum, sq float64
		for _, g := range gaps {
			sum += g
		}
		mean := sum / float64(len(gaps))
		for _, g := range gaps {
			sq += (g - mean) * (g - mean)
		}
		return sq / float64(len(gaps)) / (mean * mean)
	}
	if bursty, regular := cv2(0.4), cv2(4); bursty <= 1 || regular >= 1 {
		t.Errorf("gamma burstiness does not order with shape: cv2(0.4)=%.2f cv2(4)=%.2f", bursty, regular)
	}
}
