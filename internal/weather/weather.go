// Package weather synthesises realistic irradiance traces for long-horizon
// harvesting experiments: a deterministic clear-sky daylight envelope
// modulated by a stochastic cloud process. The paper evaluates under a few
// static light levels plus hand-made dimming events; this package provides
// the statistically plausible environment a deployed battery-less node
// actually sees, so policies can be compared over hours of varying light.
//
// The cloud model is the standard two-layer construction:
//
//   - a two-state Markov chain (clear <-> cloudy) with exponentially
//     distributed dwell times, giving realistic burst structure;
//   - within cloudy periods, an Ornstein-Uhlenbeck process modulates the
//     attenuation so cloud edges and density fluctuate smoothly.
//
// All randomness flows through an injected *rand.Rand, so traces are
// reproducible from a seed.
package weather

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
)

// Errors returned by this package.
var (
	// ErrBadTrace indicates invalid duration or step for a trace.
	ErrBadTrace = errors.New("weather: bad trace geometry")
)

// Generator produces irradiance traces. Construct with NewGenerator.
type Generator struct {
	rng *rand.Rand

	meanClearDwell  float64 // mean clear-sky dwell (s)
	meanCloudyDwell float64 // mean cloudy dwell (s)
	cloudAttenMean  float64 // mean attenuation while cloudy (fraction kept)
	cloudAttenSigma float64 // OU stationary std of the attenuation
	ouTau           float64 // OU relaxation time (s)
}

// Option configures a Generator.
type Option func(*Generator)

// WithDwellTimes sets the mean clear and cloudy dwell times (s).
func WithDwellTimes(clear, cloudy float64) Option {
	return func(g *Generator) {
		g.meanClearDwell = clear
		g.meanCloudyDwell = cloudy
	}
}

// WithCloudAttenuation sets the mean fraction of light kept under cloud and
// its fluctuation (stationary standard deviation).
func WithCloudAttenuation(mean, sigma float64) Option {
	return func(g *Generator) {
		g.cloudAttenMean = mean
		g.cloudAttenSigma = sigma
	}
}

// WithRelaxationTime sets the Ornstein-Uhlenbeck relaxation time (s) of the
// in-cloud attenuation fluctuations.
func WithRelaxationTime(tau float64) Option {
	return func(g *Generator) { g.ouTau = tau }
}

// NewGenerator returns a cloud generator with temperate-sky defaults:
// ~40 s clear spells, ~20 s clouds keeping ~35% of the light, fluctuating
// on a ~5 s timescale. rng must not be nil.
func NewGenerator(rng *rand.Rand, opts ...Option) *Generator {
	g := &Generator{
		rng:             rng,
		meanClearDwell:  40,
		meanCloudyDwell: 20,
		cloudAttenMean:  0.35,
		cloudAttenSigma: 0.10,
		ouTau:           5,
	}
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// NewSeededGenerator returns a generator whose randomness comes from a
// private source seeded with the given value: a fault.Source, which draws
// math/rand's stream for that seed. Deriving each seed with
// fault.StreamSeed keeps every stream independent of every other and of
// the worker count.
func NewSeededGenerator(seed int64, opts ...Option) *Generator {
	return NewGenerator(rand.New(fault.NewSource(seed)), opts...)
}

// Trace is a precomputed irradiance time series. The zero value is not
// useful; build with Generator.Trace.
type Trace struct {
	Step    float64   // sample spacing (s)
	Samples []float64 // irradiance fraction per sample
}

// NewTrace returns an all-dark trace covering duration (s) at the given
// sample step (s), sized with the same integer-snap arithmetic the
// generators in this package use (see sampleCount). Callers fill Samples
// in place; the geometry must pass CheckGeometry.
func NewTrace(duration, step float64) *Trace {
	return &Trace{Step: step, Samples: make([]float64, sampleCount(duration, step))}
}

// At returns the irradiance at time t with linear interpolation, clamping
// outside the trace. The method value (tr.At) plugs directly into
// circuit.Config.Irradiance.
//
// A non-positive (or NaN) Step — reachable through the zero value or a
// hand-built trace — would make pos below NaN/Inf and index chaos; such a
// degenerate trace is treated as constant at its first sample instead. A
// NaN time gets the same answer (see span).
func (tr *Trace) At(t float64) float64 {
	n := len(tr.Samples)
	if n == 0 {
		return 0
	}
	if !(tr.Step > 0) { // false for zero, negative and NaN steps
		return tr.Samples[0]
	}
	i, frac, clamp := span(t, tr.Step, n)
	if clamp {
		return tr.Samples[i]
	}
	return lerp(tr.Samples[i], tr.Samples[i+1], frac)
}

// span locates time t among n samples spaced step apart (step > 0): At
// interpolates samples i and i+1 at frac, or, when clamp is set, returns
// sample i — the first for t ≤ 0 or NaN, the last from sample n−1 on.
func span(t, step float64, n int) (i int, frac float64, clamp bool) {
	pos := t / step
	switch {
	case !(pos > 0): // false for NaN too, which int(pos) would not survive
		return 0, 0, true
	case pos >= float64(n-1):
		return n - 1, 0, true
	}
	i = int(pos)
	return i, pos - float64(i), false
}

// lerp is At's interpolation between adjacent samples a and b.
func lerp(a, b, frac float64) float64 { return a*(1-frac) + b*frac }

// NextChange reports how far ahead At is provably constant, satisfying
// the circuit.EventSource contract: At returns the same float64 bit
// pattern for every t' in [t, NextChange(t)). +Inf means "never changes
// again". The claims are deliberately conservative: interpolating
// between two equal nonzero samples is NOT bitwise constant
// (v*(1-f)+v*f re-rounds), so constancy is only claimed over the clamp
// regions (before the first sample, from the last sample on) and over
// runs of exactly-zero samples, where the interpolation is exactly +0.
// That is precisely the span that matters: fast-forward only engages on
// dark (zero-irradiance) spans.
func (tr *Trace) NextChange(t float64) float64 {
	n := len(tr.Samples)
	if n == 0 || !(tr.Step > 0) {
		return math.Inf(1) // At is a constant function
	}
	pos := t / tr.Step
	if pos >= float64(n-1) {
		return math.Inf(1) // tail clamp: Samples[n-1] forever
	}
	i := 0
	if pos > 0 {
		i = int(pos)
	}
	if math.Float64bits(tr.Samples[i]) != 0 {
		if pos < 0 {
			return 0 // head clamp: Samples[0] until t = 0
		}
		return t // interpolating a nonzero sample: no claim
	}
	// Extend through the run of exactly-zero samples: every t' strictly
	// inside it interpolates two +0 samples, which is exactly +0.
	j := i
	for j+1 < n && math.Float64bits(tr.Samples[j+1]) == 0 {
		j++
	}
	if j == n-1 {
		return math.Inf(1) // zero through the end, and the tail clamps
	}
	// Claim only up to one sample short of the run's end: within an ulp
	// of the j*Step boundary, t/Step can round up far enough to land on
	// sample j and interpolate the nonzero sample j+1, so the run's last
	// interval is left to verbatim stepping. Below (j-1)*Step the
	// quotient cannot reach j, and both interpolated samples are +0.
	if zeroEnd := float64(j-1) * tr.Step; zeroEnd > t {
		return zeroEnd
	}
	return t // inside the run's final interval: no claim
}

// Duration returns the trace length (s).
func (tr *Trace) Duration() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	return float64(len(tr.Samples)-1) * tr.Step
}

// Stats returns the trace's min, mean and max irradiance.
func (tr *Trace) Stats() (minV, mean, maxV float64) {
	if len(tr.Samples) == 0 {
		return 0, 0, 0
	}
	minV, maxV = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, s := range tr.Samples {
		minV = math.Min(minV, s)
		maxV = math.Max(maxV, s)
		sum += s
	}
	return minV, sum / float64(len(tr.Samples)), maxV
}

// CloudFraction returns the fraction of samples attenuated below the given
// fraction of the concurrent clear-sky envelope.
func CloudFraction(cloudy, clear *Trace, threshold float64) float64 {
	if len(cloudy.Samples) == 0 || len(cloudy.Samples) != len(clear.Samples) {
		return 0
	}
	n := 0
	for i, s := range cloudy.Samples {
		if env := clear.Samples[i]; env > 0 && s < threshold*env {
			n++
		}
	}
	return float64(n) / float64(len(cloudy.Samples))
}

// sampleCountEps is the relative slack sampleCount allows when deciding
// that a duration/step quotient is "really" an integer — the same bound
// internal/circuit's stepCount uses for its step budget. One float64
// division is wrong by at most half an ulp (~1.1e-16 relative), so 1e-12
// is four orders of magnitude of headroom while staying far below any
// fractional sample a caller could configure on purpose.
const sampleCountEps = 1e-12

// sampleCount converts a (duration, step) pair into the trace sample
// count, one sample per step boundary in [0, duration]. The naive
// int(duration/step)+1 silently truncates whenever the division lands a
// few ulps below an exact multiple — 0.3/0.1 evaluates to
// 2.9999999999999996, so the trace lost its endpoint sample, shifting
// Trace.Duration() and the At() clamp boundary. Quotients within
// sampleCountEps of an integer snap to it; everything else still floors,
// so a deliberately fractional trailing interval keeps its partial sample.
func sampleCount(duration, step float64) int {
	x := duration / step
	if r := math.Round(x); r >= 0 && math.Abs(x-r) <= r*sampleCountEps {
		return int(r) + 1
	}
	return int(x) + 1
}

// MaxSamples bounds a trace's length in steps (see CheckGeometry), so a
// trace holds at most MaxSamples+1 samples, 2 GiB: room above the largest
// trace a bounded caller builds, hemserved's 2×10^7-step scenario cap.
const MaxSamples = 1 << 28

// CheckGeometry returns an error wrapping ErrBadTrace unless duration and
// step are positive and finite and the float quotient duration/step is
// below MaxSamples. A bare `<= 0` check lets NaN and ±Inf through to
// sampleCount, which turns them, and a quotient beyond int range, into a
// negative or meaningless sample count.
func CheckGeometry(duration, step float64) error {
	if !(duration > 0 && step > 0) || math.IsInf(duration, 0) || math.IsInf(step, 0) {
		return fmt.Errorf("%w: duration=%g step=%g (both must be positive and finite)", ErrBadTrace, duration, step)
	}
	if n := duration / step; !(n < MaxSamples) {
		return fmt.Errorf("%w: duration=%g step=%g is %g steps (MaxSamples is %d)",
			ErrBadTrace, duration, step, n, MaxSamples)
	}
	return nil
}

// ClearSky returns the deterministic daylight envelope trace: zero before
// sunrise and after sunset, a half-sine peaking at `peak` in between.
func ClearSky(duration, step, sunrise, sunset, peak float64) (*Trace, error) {
	if err := CheckGeometry(duration, step); err != nil {
		return nil, err
	}
	n := sampleCount(duration, step)
	tr := &Trace{Step: step, Samples: make([]float64, n)}
	for i := 0; i < n; i++ {
		t := float64(i) * step
		if t <= sunrise || t >= sunset || sunset <= sunrise {
			continue
		}
		phase := (t - sunrise) / (sunset - sunrise)
		tr.Samples[i] = peak * math.Sin(math.Pi*phase)
	}
	return tr, nil
}

// Trace renders a stochastic irradiance trace of the given duration and
// sample step under the given clear-sky envelope. If envelope is nil a
// constant envelope of 1.0 (bench light) is used.
func (g *Generator) Trace(duration, step float64, envelope *Trace) (*Trace, error) {
	if err := CheckGeometry(duration, step); err != nil {
		return nil, err
	}
	tr := NewTrace(duration, step)
	smp := g.newSampler(step)
	for i := range tr.Samples {
		env := 1.0
		if envelope != nil {
			env = envelope.At(float64(i) * step)
		}
		tr.Samples[i] = smp.next(env)
	}
	return tr, nil
}

// sampler is the cloud process between two samples: the Markov state with
// its remaining dwell, the OU attenuation, and the OU constants of one
// step. Generator.Trace and Sky both advance it, one sample per call to
// next, so the recurrence exists once.
type sampler struct {
	g          *Generator
	step       float64 // sample spacing (s)
	decay      float64 // OU decay over one step, Exp(−step/τ)
	noiseScale float64 // OU noise over one step, σ·Sqrt(1−decay²)
	dwell      float64 // time left in the current Markov state (s)
	atten      float64 // OU state, meaningful while cloudy
	cloudy     bool
}

// newSampler draws the initial Markov state and its dwell from g.
func (g *Generator) newSampler(step float64) sampler {
	cloudy := g.rng.Float64() < g.meanCloudyDwell/(g.meanClearDwell+g.meanCloudyDwell)
	decay := math.Exp(-step / g.ouTau)
	return sampler{
		g:          g,
		step:       step,
		decay:      decay,
		noiseScale: g.cloudAttenSigma * math.Sqrt(1-decay*decay),
		dwell:      g.nextDwell(cloudy),
		atten:      g.cloudAttenMean,
		cloudy:     cloudy,
	}
}

// next advances the process one step and returns the sample under the
// envelope level env.
func (s *sampler) next(env float64) float64 {
	g := s.g
	// Advance the Markov chain.
	s.dwell -= s.step
	if s.dwell <= 0 {
		s.cloudy = !s.cloudy
		s.dwell = g.nextDwell(s.cloudy)
		if s.cloudy {
			s.atten = g.clampAtten(g.cloudAttenMean + g.cloudAttenSigma*g.rng.NormFloat64())
		}
	}
	if !s.cloudy {
		return env
	}
	// Exact OU update over one step.
	noise := s.noiseScale * g.rng.NormFloat64()
	s.atten = g.clampAtten(g.cloudAttenMean + (s.atten-g.cloudAttenMean)*s.decay + noise)
	return env * s.atten
}

// nextDwell draws an exponential dwell time for the given state.
func (g *Generator) nextDwell(cloudy bool) float64 {
	mean := g.meanClearDwell
	if cloudy {
		mean = g.meanCloudyDwell
	}
	return g.rng.ExpFloat64() * mean
}

// attenFloor is the least fraction of light a cloud keeps.
const attenFloor = 0.02

// clampAtten keeps the attenuation physical.
func (g *Generator) clampAtten(a float64) float64 {
	if a < attenFloor {
		return attenFloor
	}
	if a > 1 {
		return 1
	}
	return a
}
