package weather

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClearSkyEnvelope(t *testing.T) {
	tr, err := ClearSky(10, 0.01, 2, 8, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(1) != 0 || tr.At(9) != 0 {
		t.Error("night should be dark")
	}
	if got := tr.At(5); math.Abs(got-0.9) > 1e-3 {
		t.Errorf("noon = %g, want ~0.9", got)
	}
	// Symmetric around noon.
	if math.Abs(tr.At(3.5)-tr.At(6.5)) > 1e-3 {
		t.Error("envelope not symmetric")
	}
	if _, err := ClearSky(0, 0.01, 2, 8, 1); !errors.Is(err, ErrBadTrace) {
		t.Errorf("zero duration: %v", err)
	}
}

func TestTraceDeterministicBySeed(t *testing.T) {
	a, err := NewGenerator(rand.New(rand.NewSource(11))).Trace(60, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(rand.New(rand.NewSource(11))).Trace(60, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, err := NewGenerator(rand.New(rand.NewSource(12))).Trace(60, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceBounds(t *testing.T) {
	env, err := ClearSky(120, 0.05, 10, 110, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewGenerator(rand.New(rand.NewSource(3))).Trace(120, 0.05, env)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tr.Samples {
		if s < 0 || s > env.Samples[i]+1e-12 {
			t.Fatalf("sample %d = %g exceeds envelope %g", i, s, env.Samples[i])
		}
	}
	minV, mean, maxV := tr.Stats()
	if minV < 0 || maxV > 1 || mean <= 0 {
		t.Errorf("stats out of range: min=%g mean=%g max=%g", minV, mean, maxV)
	}
}

func TestCloudFractionTracksDwellTimes(t *testing.T) {
	// Equal dwell times: ~50% of samples attenuated. Long run for stability.
	g := NewGenerator(rand.New(rand.NewSource(7)),
		WithDwellTimes(20, 20),
		WithCloudAttenuation(0.3, 0.05),
	)
	tr, err := g.Trace(4000, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat := &Trace{Step: tr.Step, Samples: make([]float64, len(tr.Samples))}
	for i := range flat.Samples {
		flat.Samples[i] = 1
	}
	frac := CloudFraction(tr, flat, 0.9)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("cloud fraction %.2f, want ~0.5 for equal dwell times", frac)
	}
	// Mostly-clear configuration.
	g2 := NewGenerator(rand.New(rand.NewSource(7)), WithDwellTimes(90, 10))
	tr2, err := g2.Trace(4000, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	frac2 := CloudFraction(tr2, flat, 0.9)
	if frac2 >= frac {
		t.Errorf("mostly-clear fraction %.2f not below balanced %.2f", frac2, frac)
	}
}

func TestAtInterpolatesAndClamps(t *testing.T) {
	tr := &Trace{Step: 1, Samples: []float64{0, 1, 0.5}}
	if tr.At(-5) != 0 || tr.At(100) != 0.5 {
		t.Error("clamping wrong")
	}
	// A NaN time answers the first sample, as a NaN step does, instead of
	// indexing Samples[int(NaN)].
	tr.Samples[0] = 0.25
	if got := tr.At(math.NaN()); got != 0.25 {
		t.Errorf("At(NaN) = %g, want the first sample 0.25", got)
	}
	tr.Samples[0] = 0
	if got := tr.At(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("interp = %g, want 0.5", got)
	}
	if got := tr.At(1.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("interp = %g, want 0.75", got)
	}
	if tr.Duration() != 2 {
		t.Errorf("duration = %g", tr.Duration())
	}
	empty := &Trace{Step: 1}
	if empty.At(0) != 0 || empty.Duration() != 0 {
		t.Error("empty trace should be dark")
	}
}

func TestOUAttenuationStaysSmooth(t *testing.T) {
	// Attenuation under a permanently cloudy sky should fluctuate with a
	// bounded step-to-step change and hover around the configured mean.
	g := NewGenerator(rand.New(rand.NewSource(5)),
		WithDwellTimes(0.001, 1e9), // effectively always cloudy
		WithCloudAttenuation(0.4, 0.08),
		WithRelaxationTime(5),
	)
	tr, err := g.Trace(600, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, mean, _ := tr.Stats()
	if mean < 0.3 || mean > 0.5 {
		t.Errorf("cloudy mean %.3f, want ~0.4", mean)
	}
	for i := 1; i < len(tr.Samples); i++ {
		if d := math.Abs(tr.Samples[i] - tr.Samples[i-1]); d > 0.15 {
			t.Fatalf("attenuation jumped %.3f in one step", d)
		}
	}
}

// Property: traces never leave [0, 1] for any seed and dwell configuration.
func TestQuickTraceBounds(t *testing.T) {
	f := func(seed int64, clearRaw, cloudyRaw uint8) bool {
		g := NewGenerator(rand.New(rand.NewSource(seed)),
			WithDwellTimes(1+float64(clearRaw), 1+float64(cloudyRaw)))
		tr, err := g.Trace(50, 0.1, nil)
		if err != nil {
			return false
		}
		for _, s := range tr.Samples {
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSampleCountSnapsNearIntegerRatios is the regression test for the
// FP-truncation bug: duration/step quotients that land a few ulps below an
// exact multiple (0.3/0.1 = 2.9999999999999996) used to lose the endpoint
// sample, shifting Trace.Duration() and the At() clamp boundary.
func TestSampleCountSnapsNearIntegerRatios(t *testing.T) {
	cases := []struct {
		duration, step float64
		want           int
	}{
		// Known-bad ratios: the raw quotient truncates one short.
		{0.3, 0.1, 4},
		{0.7, 0.1, 8},
		{0.6, 0.2, 4},
		{8.1, 0.1, 82},
		{4.8, 0.1, 49},
		// Exact and fractional ratios keep their former counts.
		{10, 0.001, 10001},
		{1, 0.1, 11},
		{1, 0.4, 3}, // 2.5 steps: floor + endpoint partial
		{0.05, 0.2, 1},
	}
	for _, c := range cases {
		if got := sampleCount(c.duration, c.step); got != c.want {
			t.Errorf("sampleCount(%g, %g) = %d, want %d", c.duration, c.step, got, c.want)
		}
	}
	// Both public constructors size through the same helper.
	tr, err := ClearSky(0.3, 0.1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 4 || math.Abs(tr.Duration()-0.3) > 1e-12 {
		t.Errorf("ClearSky(0.3, 0.1): %d samples, duration %g", len(tr.Samples), tr.Duration())
	}
	gtr, err := NewGenerator(rand.New(rand.NewSource(1))).Trace(0.7, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gtr.Samples) != 8 {
		t.Errorf("Generator.Trace(0.7, 0.1): %d samples, want 8", len(gtr.Samples))
	}
}

// Property: for every (duration, step), the trace always covers the full
// duration — Duration() is never more than one step short of the request.
func TestQuickSampleCountCoversDuration(t *testing.T) {
	f := func(dRaw, sRaw uint16) bool {
		duration := 0.05 + float64(dRaw)/997.0
		step := 0.001 + float64(sRaw)/65536.0
		n := sampleCount(duration, step)
		if n < 1 {
			return false
		}
		covered := float64(n-1) * step
		return covered > duration-step*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAtDegenerateStep is the regression test for the unguarded t/Step
// division: a zero, negative or NaN Step (the zero value, or a hand-built
// trace) must behave as a constant source, not emit NaN/Inf irradiance.
func TestAtDegenerateStep(t *testing.T) {
	for _, step := range []float64{0, -1, math.NaN()} {
		tr := &Trace{Step: step, Samples: []float64{0.25, 0.5}}
		for _, at := range []float64{-1, 0, 0.5, 1e9, math.NaN()} {
			if got := tr.At(at); got != 0.25 {
				t.Errorf("step=%g At(%g) = %g, want first sample 0.25", step, at, got)
			}
		}
	}
}

// badGeometries are (duration, step) pairs no trace can be sampled on:
// non-positive or non-finite, NaN and ±Inf included, and quotients at or
// above MaxSamples. The last ones sized make's slice beyond its length
// limit (1e300/0.005 beyond int range, 1e13/0.005 beyond 2^48 bytes) and
// panicked.
var badGeometries = [][2]float64{
	{0, 0.1}, {10, 0}, {-1, 0.1}, {10, -0.1},
	{math.NaN(), 0.1}, {10, math.NaN()}, {math.NaN(), math.NaN()},
	{math.Inf(1), 0.1}, {math.Inf(-1), 0.1}, {10, math.Inf(1)}, {math.Inf(1), math.Inf(1)},
	{1e300, 0.005}, {1e13, 0.005}, {1, 1e-300}, {MaxSamples, 1},
}

// TestCheckGeometryBound: the bound is on the float quotient, so the
// largest accepted geometry asks for fewer than MaxSamples steps; with the
// endpoint sample (and sampleCount's snap to the nearest integer) that is
// at most MaxSamples+1 samples.
func TestCheckGeometryBound(t *testing.T) {
	if err := CheckGeometry(MaxSamples-1, 1); err != nil {
		t.Errorf("quotient MaxSamples-1 rejected: %v", err)
	}
	if err := CheckGeometry(math.Nextafter(MaxSamples, 0), 1); err != nil {
		t.Errorf("quotient just below MaxSamples rejected: %v", err)
	}
	if err := CheckGeometry(MaxSamples*0.005, 0.005); !errors.Is(err, ErrBadTrace) {
		t.Errorf("quotient MaxSamples accepted: %v", err)
	}
	if n := sampleCount(math.Nextafter(MaxSamples, 0), 1); n != MaxSamples+1 {
		t.Errorf("largest accepted geometry samples %d, want %d", n, MaxSamples+1)
	}
}

// TestTraceErrors: every constructor answers ErrBadTrace for a bad
// geometry instead of panicking on a negative sample count or returning a
// trace of garbage length.
func TestTraceErrors(t *testing.T) {
	g := NewGenerator(rand.New(rand.NewSource(1)))
	for _, geo := range badGeometries {
		d, step := geo[0], geo[1]
		if _, err := g.Trace(d, step, nil); !errors.Is(err, ErrBadTrace) {
			t.Errorf("Trace(%g, %g): %v, want ErrBadTrace", d, step, err)
		}
		if _, err := ClearSky(d, step, 2, 8, 1); !errors.Is(err, ErrBadTrace) {
			t.Errorf("ClearSky(%g, %g): %v, want ErrBadTrace", d, step, err)
		}
		if _, err := NewSky(1, d, step, 1, math.Inf(1)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("NewSky(%g, %g): %v, want ErrBadTrace", d, step, err)
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	g := NewGenerator(rand.New(rand.NewSource(1)))
	for i := 0; i < b.N; i++ {
		if _, err := g.Trace(600, 0.01, nil); err != nil {
			b.Fatal(err)
		}
	}
}
