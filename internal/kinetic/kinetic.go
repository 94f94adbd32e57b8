// Package kinetic models a kinetic/piezoelectric energy harvester as an
// equivalent-irradiance source for the transient simulator. Kinetic
// transducers on the batteryless IoT (wearables, machine-mounted sensors)
// do not see a smooth power envelope: they see an *impulse train* — every
// footstep, bump or vibration burst delivers a short packet of charge that
// the rectifier and storage front-end then bleed into the node ("Towards
// Optimal Kinetic Energy Harvesting for the Batteryless IoT", Sandhu et
// al.). The model here is that standard decomposition:
//
//   - impulses arrive as a Poisson process with a configurable mean rate
//     (steps/s, machine-vibration events/s);
//   - each impulse injects a peak equivalent-irradiance amplitude, jittered
//     per impulse to model stride-to-stride variation;
//   - between impulses the delivered power relaxes exponentially with the
//     transducer/rectifier time constant, so closely spaced impulses ride
//     up on each other's tails exactly as buffered piezo front-ends do.
//
// The output is a sampled weather.Trace, so a kinetic harvester plugs into
// circuit.Config.Irradiance exactly like a sky does: the PV cell model then
// acts as the generic "harvester front-end" transfer function, with the
// equivalent irradiance expressing delivered power as a fraction of the
// full-sun operating point. All randomness flows through an injected
// *rand.Rand, so traces are reproducible from a seed.
package kinetic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/weather"
)

// Default harvester parameters: a wrist/ankle-class wearable at a walking
// cadence. ~2 impulses/s, each peaking near a fifth of full sun through the
// small transducer, relaxing over ~120 ms.
const (
	DefaultRate    = 2.0   // mean impulse rate (1/s)
	DefaultImpulse = 0.20  // peak equivalent irradiance per impulse
	DefaultDecay   = 0.120 // exponential relaxation time constant (s)
	DefaultJitter  = 0.25  // per-impulse amplitude jitter (fraction of peak)
	DefaultCap     = 1.0   // equivalent-irradiance ceiling
)

// Harvester is an impulse-train kinetic source. Construct with New.
type Harvester struct {
	rate    float64 // mean impulse rate (1/s)
	impulse float64 // peak equivalent irradiance per impulse
	decay   float64 // relaxation time constant (s)
	jitter  float64 // uniform amplitude jitter in [0, 1)
	cap     float64 // output ceiling (stacked impulses clip here)
}

// Option configures a Harvester.
type Option func(*Harvester)

// WithRate sets the mean impulse arrival rate (1/s).
func WithRate(rate float64) Option {
	return func(h *Harvester) { h.rate = rate }
}

// WithImpulse sets the peak equivalent irradiance one impulse injects.
func WithImpulse(peak float64) Option {
	return func(h *Harvester) { h.impulse = peak }
}

// WithDecay sets the exponential relaxation time constant (s).
func WithDecay(tau float64) Option {
	return func(h *Harvester) { h.decay = tau }
}

// WithJitter sets the per-impulse amplitude jitter: each impulse's peak is
// drawn uniformly from impulse*[1-j, 1+j].
func WithJitter(j float64) Option {
	return func(h *Harvester) { h.jitter = j }
}

// New returns a harvester with wearable-walking defaults.
func New(opts ...Option) *Harvester {
	h := &Harvester{
		rate:    DefaultRate,
		impulse: DefaultImpulse,
		decay:   DefaultDecay,
		jitter:  DefaultJitter,
		cap:     DefaultCap,
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// Trace renders the impulse train into a sampled equivalent-irradiance
// trace of the given duration and sample step. The walk is a single pass:
// a decaying accumulator relaxes by exp(-step/decay) per sample and every
// impulse that fired inside the sample interval tops it up, so stacked
// impulses superpose like charge on the rectifier's buffer. rng must not
// be nil.
//
// Dead time before the first impulse is rendered as exactly-zero samples
// (the accumulator starts at 0.0 and 0*relax stays 0.0), which the
// returned trace's NextChange reports as an inert span — a simulator fed
// the trace as its circuit.Config.IrradianceSource fast-forwards through
// it instead of stepping (see internal/circuit's event-horizon stepping).
func (h *Harvester) Trace(rng *rand.Rand, duration, step float64) (*weather.Trace, error) {
	if err := weather.CheckGeometry(duration, step); err != nil {
		return nil, err
	}
	switch {
	case h.rate <= 0 || h.impulse <= 0 || h.decay <= 0:
		return nil, fmt.Errorf("kinetic: rate, impulse and decay must be positive (rate=%g impulse=%g decay=%g)",
			h.rate, h.impulse, h.decay)
	case h.jitter < 0 || h.jitter >= 1:
		return nil, fmt.Errorf("kinetic: jitter %g outside [0, 1)", h.jitter)
	case h.cap <= 0:
		return nil, fmt.Errorf("kinetic: cap %g must be positive", h.cap)
	}
	tr := weather.NewTrace(duration, step)
	relax := math.Exp(-step / h.decay)
	next := rng.ExpFloat64() / h.rate // first impulse time
	level := 0.0
	for i := range tr.Samples {
		t := float64(i) * step
		level *= relax
		// Deliver every impulse whose arrival time has passed. Impulse
		// times keep exact Poisson spacing; amplitudes superpose.
		for next <= t {
			amp := h.impulse
			if h.jitter > 0 {
				amp *= 1 + h.jitter*(2*rng.Float64()-1)
			}
			level += amp
			next += rng.ExpFloat64() / h.rate
		}
		out := level
		if out > h.cap {
			out = h.cap
		}
		tr.Samples[i] = out
	}
	return tr, nil
}
