package scenario

// Source rendering: every kind compiles to one sampled *weather.Trace at
// the geometry's resolution, so the circuit simulator sees a uniform
// Irradiance interface whether the energy arrives from a sky, a bench
// lamp, a piezo transducer, an office lighting ladder or a recorded file.
// The render is seeded from StreamSeed(seed, "scenario", "source") — one
// stream, shared by the whole population: the environment is the scenario,
// per-node diversity comes from the site trim, not from private skies.

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/indoor"
	"repro/internal/kinetic"
	"repro/internal/weather"
)

// SourceTrace renders (or, for kind=trace, loads) the spec's light trace.
// The result is shared read-only by every node of the run; recording it
// with WriteTrace and re-running with kind=trace reproduces the original
// run byte for byte.
func (s Spec) SourceTrace() (*weather.Trace, error) {
	src := s.Source
	horizon, step := s.Geometry.HorizonS, s.Geometry.StepS
	rng := rand.New(fault.NewSource(fault.StreamSeed(s.Seed, "scenario", "source")))
	switch src.Kind {
	case SourceBench:
		if err := weather.CheckGeometry(horizon, step); err != nil {
			return nil, err
		}
		tr := weather.NewTrace(horizon, step)
		for i := range tr.Samples {
			tr.Samples[i] = src.Level
		}
		return tr, nil
	case SourceClear:
		return weather.ClearSky(horizon, step,
			src.SunriseFrac*horizon, src.SunsetFrac*horizon, src.Peak)
	case SourceCloudy:
		gen := weather.NewGenerator(rng,
			weather.WithDwellTimes(src.DwellClearS, src.DwellCloudyS),
			weather.WithCloudAttenuation(src.AttenMean, src.AttenSigma),
		)
		tr, err := gen.Trace(horizon, step, nil)
		if err != nil {
			return nil, err
		}
		if src.Level != 1 {
			for i := range tr.Samples {
				tr.Samples[i] *= src.Level
			}
		}
		return tr, nil
	case SourceKinetic:
		h := kinetic.New(
			kinetic.WithRate(src.RateHz),
			kinetic.WithImpulse(src.Impulse),
			kinetic.WithDecay(src.DecayS),
			kinetic.WithJitter(src.Jitter),
		)
		return h.Trace(rng, horizon, step)
	case SourceIndoor:
		env := indoor.New(
			indoor.WithJitter(src.Jitter),
			indoor.WithStartStage(src.StartStage),
		)
		return env.Trace(rng, horizon, step)
	case SourceTrace:
		return ReadTraceFile(src.Path)
	default:
		return nil, fmt.Errorf("%w: unknown source kind %q", ErrBadSpec, src.Kind)
	}
}
