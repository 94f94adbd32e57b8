// Package scenario is the declarative environment layer of the
// reproduction (ROADMAP item 2): one JSON document composes an energy
// source (sky, bench light, kinetic impulse train, indoor lighting ladder,
// or a recorded trace), a workload (the deadline job plus stochastic event
// arrivals feeding the radio), and a run geometry (single node or a small
// fleet), and the engine runs it through the transient circuit simulator.
// The paper evaluates under a handful of static light levels and hand-made
// dimming events; a scenario is the statistically plausible deployment a
// battery-less node actually faces, written down in a reviewable file.
//
// Determinism contract: a scenario run is a pure function of its Spec. All
// randomness (source rendering, per-node trims, event arrivals) derives
// from the spec seed via FNV-1a stream separation (fault.StreamSeed), and
// all aggregation happens in node-ID order, so report bytes are identical
// across worker counts and repeated runs. The canonical
// String() form — compact JSON with defaults resolved — is byte-stable and
// doubles as a cache key, like fleet.Spec.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/weather"
)

// Errors returned by this package.
var (
	// ErrBadSpec indicates a scenario spec that fails validation.
	ErrBadSpec = errors.New("scenario: invalid spec")
)

// SpecVersion is the current spec schema version.
const SpecVersion = 1

// Source kinds.
const (
	SourceBench   = "bench"    // constant bench light
	SourceClear   = "clearsky" // deterministic daylight half-sine
	SourceCloudy  = "cloudy"   // cloud-modulated constant light
	SourceKinetic = "kinetic"  // piezo impulse train (internal/kinetic)
	SourceIndoor  = "indoor"   // staged indoor lighting (internal/indoor)
	SourceTrace   = "trace"    // recorded trace replay (ReadTrace)
)

// Arrival processes.
const (
	ArrivalsNone    = "none"
	ArrivalsPoisson = "poisson"
	ArrivalsGamma   = "gamma"
	ArrivalsWeibull = "weibull"
)

// Source describes the energy environment. Kind selects the model; the
// other fields parameterise it (unused fields must stay zero).
type Source struct {
	Kind string `json:"kind"`

	// Level is the constant equivalent irradiance of bench, and the
	// pre-cloud envelope of cloudy.
	Level float64 `json:"level,omitempty"`

	// Clear-sky envelope (clearsky): a half-sine peaking at Peak between
	// SunriseFrac and SunsetFrac of the horizon.
	Peak        float64 `json:"peak,omitempty"`
	SunriseFrac float64 `json:"sunrise_frac,omitempty"`
	SunsetFrac  float64 `json:"sunset_frac,omitempty"`

	// Cloud process (cloudy): Markov dwell times and the in-cloud
	// attenuation's mean/fluctuation (internal/weather).
	DwellClearS  float64 `json:"dwell_clear_s,omitempty"`
	DwellCloudyS float64 `json:"dwell_cloudy_s,omitempty"`
	AttenMean    float64 `json:"atten_mean,omitempty"`
	AttenSigma   float64 `json:"atten_sigma,omitempty"`

	// Kinetic impulse train (kinetic): arrival rate, per-impulse peak and
	// the transducer relaxation time (internal/kinetic).
	RateHz  float64 `json:"rate_hz,omitempty"`
	Impulse float64 `json:"impulse,omitempty"`
	DecayS  float64 `json:"decay_s,omitempty"`

	// Jitter is per-impulse amplitude jitter (kinetic) or within-stage
	// flicker (indoor), a fraction in [0, 1).
	Jitter float64 `json:"jitter,omitempty"`

	// StartStage is the initial rung of the indoor lighting ladder.
	StartStage int `json:"start_stage,omitempty"`

	// Path is the recorded trace file to replay (trace).
	Path string `json:"path,omitempty"`
}

// Arrivals describes the stochastic event process driving the radio: each
// arrival transmits one packet.
type Arrivals struct {
	Process string `json:"process"`

	// RateHz is the mean event rate (1/s).
	RateHz float64 `json:"rate_hz,omitempty"`

	// Shape is the gamma/weibull shape parameter k; inter-arrival scale is
	// always chosen so the mean rate stays RateHz. k < 1 gives burstier
	// trains than Poisson, k > 1 more regular ones.
	Shape float64 `json:"shape,omitempty"`

	// PayloadBytes is the per-event packet payload.
	PayloadBytes int `json:"payload_bytes,omitempty"`
}

// Workload describes what the node computes and transmits.
type Workload struct {
	// JobCycles is the recognition job's clock-cycle budget.
	JobCycles float64 `json:"job_cycles"`
	// DeadlineFrac places the job deadline at this fraction of the horizon.
	DeadlineFrac float64 `json:"deadline_frac"`
	// Sprint is the paper's sprint factor in [0, 1).
	Sprint float64 `json:"sprint"`
	// AuxW is the always-on peripheral draw (W).
	AuxW float64 `json:"aux_w"`
	// Arrivals is the event process feeding the radio.
	Arrivals Arrivals `json:"arrivals"`
}

// Geometry describes how many nodes run and on what clock.
type Geometry struct {
	Nodes    int     `json:"nodes"`
	HorizonS float64 `json:"horizon_s"`
	StepS    float64 `json:"step_s"`
}

// Spec is the canonical, fully-resolved description of one scenario run.
// It contains only comparable scalar fields, so two parsed specs compare
// with == and the String() form is byte-stable.
type Spec struct {
	Version  int      `json:"version"`
	Name     string   `json:"name,omitempty"`
	Seed     int64    `json:"seed"`
	Source   Source   `json:"source"`
	Workload Workload `json:"workload"`
	Geometry Geometry `json:"geometry"`
}

// Defaults resolved into zero fields by ParseScenario.
const (
	DefaultNodes        = 1
	DefaultHorizon      = 2.0  // s
	DefaultStep         = 5e-5 // s
	DefaultJobCycles    = 2e7  // clock cycles
	DefaultDeadlineFrac = 0.8
	DefaultSprint       = 0.2
	DefaultAuxW         = 0.2e-3 // W
	DefaultArrivalRate  = 4.0    // events/s
	DefaultArrivalShape = 2.0    // gamma/weibull shape k
	DefaultPayloadBytes = 12
	DefaultLevel        = 1.0 // bench / cloudy envelope
	DefaultSunriseFrac  = 0.1
	DefaultSunsetFrac   = 0.9
)

// MaxNodes bounds the population a single spec may request; larger studies
// belong to the fleet engine's epoch scheduler.
const MaxNodes = 100000

// String renders the canonical compact-JSON form: defaults resolved,
// struct field order fixed. Parsing the result yields the identical spec,
// so canonical strings are stable cache keys.
func (s Spec) String() string {
	b, err := json.Marshal(s)
	if err != nil { // unreachable: Spec holds only scalars
		return fmt.Sprintf("scenario-spec-error: %v", err)
	}
	return string(b)
}

// ParseScenario parses and validates a JSON scenario spec. Unknown fields
// and trailing garbage are errors; omitted fields take the package
// defaults, which are resolved into the returned Spec so its String() form
// is canonical.
func ParseScenario(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Spec{}, fmt.Errorf("%w: trailing data after the spec document", ErrBadSpec)
	}
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// applyDefaults resolves zero fields to the package defaults.
func (s *Spec) applyDefaults() {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if s.Source.Kind == "" {
		s.Source.Kind = SourceBench
	}
	switch s.Source.Kind {
	case SourceBench:
		if s.Source.Level == 0 {
			s.Source.Level = DefaultLevel
		}
	case SourceClear:
		if s.Source.Peak == 0 {
			s.Source.Peak = DefaultLevel
		}
		if s.Source.SunriseFrac == 0 {
			s.Source.SunriseFrac = DefaultSunriseFrac
		}
		if s.Source.SunsetFrac == 0 {
			s.Source.SunsetFrac = DefaultSunsetFrac
		}
	case SourceCloudy:
		if s.Source.Level == 0 {
			s.Source.Level = DefaultLevel
		}
		if s.Source.DwellClearS == 0 {
			s.Source.DwellClearS = 2.0
		}
		if s.Source.DwellCloudyS == 0 {
			s.Source.DwellCloudyS = 1.0
		}
		if s.Source.AttenMean == 0 {
			s.Source.AttenMean = 0.35
		}
		if s.Source.AttenSigma == 0 {
			s.Source.AttenSigma = 0.10
		}
	case SourceKinetic:
		if s.Source.RateHz == 0 {
			s.Source.RateHz = 2.0
		}
		if s.Source.Impulse == 0 {
			s.Source.Impulse = 0.20
		}
		if s.Source.DecayS == 0 {
			s.Source.DecayS = 0.12
		}
		if s.Source.Jitter == 0 {
			s.Source.Jitter = 0.25
		}
	case SourceIndoor:
		if s.Source.Jitter == 0 {
			s.Source.Jitter = 0.05
		}
		if s.Source.StartStage == 0 {
			s.Source.StartStage = 2
		}
	}
	if s.Workload.JobCycles == 0 {
		s.Workload.JobCycles = DefaultJobCycles
	}
	if s.Workload.DeadlineFrac == 0 {
		s.Workload.DeadlineFrac = DefaultDeadlineFrac
	}
	if s.Workload.Sprint == 0 {
		s.Workload.Sprint = DefaultSprint
	}
	if s.Workload.AuxW == 0 {
		s.Workload.AuxW = DefaultAuxW
	}
	if s.Workload.Arrivals.Process == "" {
		s.Workload.Arrivals.Process = ArrivalsPoisson
	}
	if s.Workload.Arrivals.Process != ArrivalsNone {
		if s.Workload.Arrivals.RateHz == 0 {
			s.Workload.Arrivals.RateHz = DefaultArrivalRate
		}
		if s.Workload.Arrivals.PayloadBytes == 0 {
			s.Workload.Arrivals.PayloadBytes = DefaultPayloadBytes
		}
	}
	switch s.Workload.Arrivals.Process {
	case ArrivalsGamma, ArrivalsWeibull:
		if s.Workload.Arrivals.Shape == 0 {
			s.Workload.Arrivals.Shape = DefaultArrivalShape
		}
	}
	if s.Geometry.Nodes == 0 {
		s.Geometry.Nodes = DefaultNodes
	}
	if s.Geometry.HorizonS == 0 {
		s.Geometry.HorizonS = DefaultHorizon
	}
	if s.Geometry.StepS == 0 {
		s.Geometry.StepS = DefaultStep
	}
}

// posFinite reports whether x is strictly positive and finite. `x > 0` is
// false for NaN and the Inf check closes the other door ParseFloat and
// JSON-decoded numbers leave open — the same NaN trap fleet.Spec.validate
// fell into.
func posFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// finiteFrac reports whether x is a finite fraction in [0, 1).
func finiteFrac(x float64) bool {
	return x >= 0 && x < 1 && !math.IsNaN(x)
}

// Validate rejects specs that cannot run. ParseScenario calls it; callers
// building a Spec by hand should too.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("%w: version %d (this build understands %d)", ErrBadSpec, s.Version, SpecVersion)
	}
	if err := s.Source.validate(); err != nil {
		return err
	}
	if err := s.Workload.validate(); err != nil {
		return err
	}
	g := s.Geometry
	if g.Nodes < 1 || g.Nodes > MaxNodes {
		return fmt.Errorf("%w: geometry.nodes %d outside [1, %d]", ErrBadSpec, g.Nodes, MaxNodes)
	}
	if !posFinite(g.HorizonS) || !posFinite(g.StepS) || g.StepS > g.HorizonS {
		return fmt.Errorf("%w: geometry horizon %g and step %g must be positive, finite, step <= horizon",
			ErrBadSpec, g.HorizonS, g.StepS)
	}
	// A run generates impulses and arrivals one by one, so their expected
	// counts are bounded as a trace's samples are.
	if impulses, arrivals := s.ExpectedEvents(); !(impulses < weather.MaxSamples) || !(arrivals < weather.MaxSamples) {
		return fmt.Errorf("%w: rates expect %.3g source impulses and %.3g arrivals per node over the horizon; each must stay below %d",
			ErrBadSpec, impulses, arrivals, weather.MaxSamples)
	}
	return nil
}

// ExpectedEvents returns the expected number of kinetic impulses the
// source delivers over the horizon (rendered once per run) and of radio
// arrivals each node stores.
func (s Spec) ExpectedEvents() (impulses, arrivalsPerNode float64) {
	if s.Source.Kind == SourceKinetic {
		impulses = s.Source.RateHz * s.Geometry.HorizonS
	}
	return impulses, s.Workload.Arrivals.RateHz * s.Geometry.HorizonS
}

// validate checks the source block for its kind, including that fields of
// other kinds stay zero (so the canonical form is unambiguous): rest is the
// block with the fields its kind reads cleared.
func (src Source) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: source %s: %s", ErrBadSpec, src.Kind, fmt.Sprintf(format, args...))
	}
	rest, reads := src, ""
	switch src.Kind {
	case SourceBench:
		if !posFinite(src.Level) || src.Level > 10 {
			return bad("level %g outside (0, 10]", src.Level)
		}
		rest.Level, reads = 0, "level"
	case SourceClear:
		if !posFinite(src.Peak) || src.Peak > 10 {
			return bad("peak %g outside (0, 10]", src.Peak)
		}
		if !finiteFrac(src.SunriseFrac) || !(src.SunsetFrac > src.SunriseFrac) || src.SunsetFrac > 1 {
			return bad("need 0 <= sunrise_frac < sunset_frac <= 1, got %g and %g", src.SunriseFrac, src.SunsetFrac)
		}
		rest.Peak, rest.SunriseFrac, rest.SunsetFrac, reads = 0, 0, 0, "peak, sunrise_frac and sunset_frac"
	case SourceCloudy:
		if !posFinite(src.Level) || src.Level > 10 {
			return bad("level %g outside (0, 10]", src.Level)
		}
		if !posFinite(src.DwellClearS) || !posFinite(src.DwellCloudyS) {
			return bad("dwell times %g/%g must be positive and finite", src.DwellClearS, src.DwellCloudyS)
		}
		if !posFinite(src.AttenMean) || src.AttenMean > 1 || !finiteFrac(src.AttenSigma) {
			return bad("attenuation mean %g must be in (0, 1] and sigma %g in [0, 1)", src.AttenMean, src.AttenSigma)
		}
		rest.Level, rest.DwellClearS, rest.DwellCloudyS, rest.AttenMean, rest.AttenSigma = 0, 0, 0, 0, 0
		reads = "level, dwell_clear_s, dwell_cloudy_s, atten_mean and atten_sigma"
	case SourceKinetic:
		if !posFinite(src.RateHz) || !posFinite(src.Impulse) || !posFinite(src.DecayS) {
			return bad("rate_hz, impulse and decay_s must be positive and finite (%g, %g, %g)",
				src.RateHz, src.Impulse, src.DecayS)
		}
		if !finiteFrac(src.Jitter) {
			return bad("jitter %g outside [0, 1)", src.Jitter)
		}
		rest.RateHz, rest.Impulse, rest.DecayS, rest.Jitter, reads = 0, 0, 0, 0, "rate_hz, impulse, decay_s and jitter"
	case SourceIndoor:
		if !finiteFrac(src.Jitter) {
			return bad("jitter %g outside [0, 1)", src.Jitter)
		}
		if src.StartStage < 0 || src.StartStage > 3 {
			return bad("start_stage %d outside the 4-rung default ladder", src.StartStage)
		}
		rest.Jitter, rest.StartStage, reads = 0, 0, "jitter and start_stage"
	case SourceTrace:
		if src.Path == "" {
			return bad("path is required")
		}
		rest.Path, reads = "", "path"
	default:
		return fmt.Errorf("%w: unknown source kind %q (want %s, %s, %s, %s, %s or %s)", ErrBadSpec,
			src.Kind, SourceBench, SourceClear, SourceCloudy, SourceKinetic, SourceIndoor, SourceTrace)
	}
	if rest != (Source{Kind: src.Kind}) {
		return bad("a field of another kind is set; this kind reads only %s", reads)
	}
	return nil
}

// validate checks the workload block.
func (wl Workload) validate() error {
	if !posFinite(wl.JobCycles) {
		return fmt.Errorf("%w: workload.job_cycles %g must be positive and finite", ErrBadSpec, wl.JobCycles)
	}
	if !(wl.DeadlineFrac > 0) || wl.DeadlineFrac > 1 || math.IsNaN(wl.DeadlineFrac) {
		return fmt.Errorf("%w: workload.deadline_frac %g outside (0, 1]", ErrBadSpec, wl.DeadlineFrac)
	}
	if !finiteFrac(wl.Sprint) {
		return fmt.Errorf("%w: workload.sprint %g outside [0, 1)", ErrBadSpec, wl.Sprint)
	}
	if wl.AuxW < 0 || math.IsNaN(wl.AuxW) || math.IsInf(wl.AuxW, 0) || wl.AuxW > 1 {
		return fmt.Errorf("%w: workload.aux_w %g outside [0, 1] W", ErrBadSpec, wl.AuxW)
	}
	ar := wl.Arrivals
	switch ar.Process {
	case ArrivalsNone:
		if ar.RateHz != 0 || ar.Shape != 0 || ar.PayloadBytes != 0 {
			return fmt.Errorf("%w: arrivals %q takes no rate/shape/payload", ErrBadSpec, ar.Process)
		}
	case ArrivalsPoisson:
		if ar.Shape != 0 {
			return fmt.Errorf("%w: arrivals shape only applies to %s and %s", ErrBadSpec, ArrivalsGamma, ArrivalsWeibull)
		}
	case ArrivalsGamma, ArrivalsWeibull:
		if !posFinite(ar.Shape) || ar.Shape > 100 {
			return fmt.Errorf("%w: arrivals.shape %g outside (0, 100]", ErrBadSpec, ar.Shape)
		}
	default:
		return fmt.Errorf("%w: unknown arrivals process %q (want %s, %s, %s or %s)", ErrBadSpec,
			ar.Process, ArrivalsNone, ArrivalsPoisson, ArrivalsGamma, ArrivalsWeibull)
	}
	if ar.Process != ArrivalsNone {
		if !posFinite(ar.RateHz) || ar.RateHz > 1e6 {
			return fmt.Errorf("%w: arrivals.rate_hz %g outside (0, 1e6]", ErrBadSpec, ar.RateHz)
		}
		if ar.PayloadBytes < 0 || ar.PayloadBytes > 1024 {
			return fmt.Errorf("%w: arrivals.payload_bytes %d outside [0, 1024]", ErrBadSpec, ar.PayloadBytes)
		}
	}
	return nil
}
