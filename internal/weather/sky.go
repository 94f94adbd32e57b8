package weather

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fault"
)

// Sky is one site's sky, streamed. Its samples are those of
//
//	NewSeededGenerator(seed, opts...).Trace(duration, step, nil)
//
// each multiplied by scale, and exactly zero from the first sample at
// t ≥ cut on (the lights-out tail). At and NextChange return bit for bit
// what a Trace of those samples returns, but a Sky holds two samples and
// its generator's state instead of the slice: about 250 bytes, with a
// lazily seeded fault.Source that keeps no register for the first 273
// draws. At renders forward to the two samples it interpolates, so a
// stepper walking t upward renders each sample once and the dark tail
// draws nothing. Asked for an earlier time, At re-seeds and replays from
// sample 0, so it stays a pure function of t. A Sky is not safe for
// concurrent use.
type Sky struct {
	src   fault.Source // the generator's stream
	smp   sampler      // the cloud process after sample k
	seed  int64        // re-seeds src for a replay
	n     int          // samples in the trace
	scale float64      // light scale of every sample
	cut   float64      // samples at t ≥ cut are zero
	k     int          // index of the newest rendered sample, −1 before sample 0
	a, b  float64      // samples k−1 and k
}

// NewSky returns the streamed sky of the given seed and generator options
// over duration at the given sample step. Pass cut = +Inf for a sky that
// never goes dark. scale must be positive: then no sample before the cut
// is zero, which is what lets NextChange answer from the cut alone.
func NewSky(seed int64, duration, step, scale, cut float64, opts ...Option) (*Sky, error) {
	if err := CheckGeometry(duration, step); err != nil {
		return nil, err
	}
	if !(scale*attenFloor > 0) {
		return nil, fmt.Errorf("weather: sky scale %g is not positive", scale)
	}
	s := &Sky{seed: seed, n: sampleCount(duration, step), scale: scale, cut: cut}
	s.smp = sampler{g: NewGenerator(rand.New(&s.src), opts...), step: step}
	s.rewind()
	return s, nil
}

// rewind re-seeds the stream and restarts it before sample 0.
func (s *Sky) rewind() {
	g := s.smp.g
	g.rng.Seed(s.seed)
	s.smp = g.newSampler(s.smp.step)
	s.k = -1
}

// seek renders forward until sample k is the newest, replaying from sample
// 0 when k lies behind the window.
func (s *Sky) seek(k int) {
	if k < s.k {
		s.rewind()
	}
	for s.k < k {
		s.k++
		s.a = s.b
		if float64(s.k)*s.smp.step >= s.cut {
			s.b = 0
		} else {
			s.b = s.smp.next(1) * s.scale
		}
	}
}

// At returns the irradiance at time t, as Trace.At does.
func (s *Sky) At(t float64) float64 {
	i, frac, clamp := span(t, s.smp.step, s.n)
	if clamp {
		s.seek(i)
		return s.b
	}
	s.seek(i + 1)
	return lerp(s.a, s.b, frac)
}

// NextChange returns what Trace.NextChange returns for these samples. A
// sample before the cut is at least scale·attenFloor > 0, so the only
// exactly-zero run is the dark tail, which lasts to the end: from inside
// it At never changes again, and before it no span is claimed except the
// head clamp.
func (s *Sky) NextChange(t float64) float64 {
	pos := t / s.smp.step
	if pos >= float64(s.n-1) {
		return math.Inf(1) // tail clamp
	}
	i := 0
	if pos > 0 {
		i = int(pos)
	}
	switch {
	case float64(i)*s.smp.step >= s.cut:
		return math.Inf(1)
	case pos < 0:
		return 0 // head clamp: sample 0 until t = 0
	}
	return t
}
