// Package indoor models an indoor low-light photovoltaic environment as a
// staged ambient process. Office and home deployments do not see a solar
// arc: they see a small set of discrete lighting regimes — lights off,
// dim standby/night lighting, task lighting, full overhead banks — with
// occupancy-driven dwell in each ("Energy Management in Solar Powered
// Wearable Devices under Indoor Lighting", Kouzinopoulos et al. is the
// genre). The model here is that ladder:
//
//   - a small ordered set of Stage levels, each an equivalent-irradiance
//     fraction of the cell's full-sun operating point, with a per-stage
//     mean dwell time (exponentially distributed);
//   - transitions move ±1 stage (lights step up or down one regime at a
//     time; a direct off→full jump is two fast transitions), reflecting
//     at the ladder ends;
//   - each stage applies a harvest Efficiency derate, because PV cells
//     convert narrow-spectrum fluorescent/LED light worse than sunlight
//     and worse still at very low lux;
//   - a small Ornstein-Uhlenbeck-free flicker jitter wiggles samples
//     within a stage so traces are not piecewise-constant.
//
// The output is a sampled weather.Trace, so an indoor environment plugs
// into circuit.Config.Irradiance exactly like a sky does. All randomness
// flows through an injected *rand.Rand, so traces are reproducible from a
// seed.
package indoor

import (
	"fmt"
	"math/rand"

	"repro/internal/weather"
)

// Stage is one lighting regime on the ladder.
type Stage struct {
	Level      float64 // equivalent irradiance while lit at this regime
	MeanDwellS float64 // mean dwell time in this regime (s)
	Efficiency float64 // harvest derate in (0, 1] for this regime's spectrum/lux
}

// DefaultStages is a four-regime office ladder: dark, night/standby
// lighting, task lighting, full overhead banks. Levels are small — indoor
// lux is orders of magnitude below sunlight — and efficiency falls with
// lux, as low-light PV conversion does.
func DefaultStages() []Stage {
	return []Stage{
		{Level: 0.000, MeanDwellS: 120, Efficiency: 1.00}, // lights off
		{Level: 0.015, MeanDwellS: 90, Efficiency: 0.55},  // standby / corridor spill
		{Level: 0.060, MeanDwellS: 150, Efficiency: 0.70}, // task lighting
		{Level: 0.140, MeanDwellS: 200, Efficiency: 0.80}, // full overhead banks
	}
}

// Environment is a staged indoor-lighting source. Construct with New.
type Environment struct {
	stages []Stage
	start  int     // initial stage index
	jitter float64 // within-stage flicker, fraction of the stage level
}

// Option configures an Environment.
type Option func(*Environment)

// WithStartStage sets the initial rung (index into the stage ladder).
func WithStartStage(i int) Option {
	return func(e *Environment) { e.start = i }
}

// WithJitter sets the within-stage flicker amplitude: each sample is
// drawn uniformly from level*[1-j, 1+j].
func WithJitter(j float64) Option {
	return func(e *Environment) { e.jitter = j }
}

// DefaultJitter is the default within-stage flicker amplitude.
const DefaultJitter = 0.05

// New returns an indoor environment with the default office ladder,
// starting on the task-lighting rung.
func New(opts ...Option) *Environment {
	e := &Environment{
		stages: DefaultStages(),
		start:  2,
		jitter: DefaultJitter,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// validate rejects ladders that cannot run.
func (e *Environment) validate() error {
	if len(e.stages) == 0 {
		return fmt.Errorf("indoor: stage ladder is empty")
	}
	for i, s := range e.stages {
		if s.Level < 0 {
			return fmt.Errorf("indoor: stage %d level %g is negative", i, s.Level)
		}
		if !(s.MeanDwellS > 0) { // false for zero, negative and NaN dwells
			return fmt.Errorf("indoor: stage %d mean dwell %g must be positive", i, s.MeanDwellS)
		}
		if !(s.Efficiency > 0) || s.Efficiency > 1 {
			return fmt.Errorf("indoor: stage %d efficiency %g outside (0, 1]", i, s.Efficiency)
		}
	}
	if e.start < 0 || e.start >= len(e.stages) {
		return fmt.Errorf("indoor: start stage %d outside ladder of %d stages", e.start, len(e.stages))
	}
	if e.jitter < 0 || e.jitter >= 1 {
		return fmt.Errorf("indoor: jitter %g outside [0, 1)", e.jitter)
	}
	return nil
}

// Trace renders the staged process into a sampled equivalent-irradiance
// trace of the given duration and sample step. Each sample is the current
// stage's level times its efficiency derate, flicker-jittered. rng must
// not be nil.
//
// Lights-out stages (Level 0) render as exactly-zero samples — flicker
// jitter is skipped at zero, so no noise floor creeps in — which the
// returned trace's NextChange reports as inert spans: a simulator fed the
// trace as its circuit.Config.IrradianceSource fast-forwards through
// lights-out dwells instead of stepping them (see internal/circuit's
// event-horizon stepping).
func (e *Environment) Trace(rng *rand.Rand, duration, step float64) (*weather.Trace, error) {
	if err := weather.CheckGeometry(duration, step); err != nil {
		return nil, err
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	tr := weather.NewTrace(duration, step)
	stage := e.start
	dwell := rng.ExpFloat64() * e.stages[stage].MeanDwellS
	for i := range tr.Samples {
		dwell -= step
		for dwell <= 0 {
			stage = e.nextStage(rng, stage)
			dwell += rng.ExpFloat64() * e.stages[stage].MeanDwellS
		}
		s := e.stages[stage]
		level := s.Level * s.Efficiency
		if e.jitter > 0 && level > 0 {
			level *= 1 + e.jitter*(2*rng.Float64()-1)
		}
		tr.Samples[i] = level
	}
	return tr, nil
}

// nextStage moves one rung up or down, reflecting at the ladder ends.
func (e *Environment) nextStage(rng *rand.Rand, stage int) int {
	if len(e.stages) == 1 {
		return stage
	}
	up := rng.Float64() < 0.5
	switch {
	case stage == 0:
		return 1
	case stage == len(e.stages)-1:
		return stage - 1
	case up:
		return stage + 1
	default:
		return stage - 1
	}
}
