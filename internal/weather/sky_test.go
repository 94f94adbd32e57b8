package weather

import (
	"math"
	"math/rand"
	"testing"
)

// skyOptions are a fleet node's generator options over horizon h: dwell
// times and the OU relaxation scale with the horizon.
func skyOptions(h float64) []Option {
	return []Option{WithDwellTimes(h/6, h/10), WithRelaxationTime(h / 25)}
}

// skyCut is the fleet's lights-out time for a dark fraction.
func skyCut(h, dark float64) float64 {
	if dark > 0 {
		return (1 - dark) * h
	}
	return math.Inf(1)
}

// referenceSky renders a node's sky the way a fleet build did before
// skies were streamed: the whole trace, scaled by the site in place, with
// every sample from the cut on set to zero.
func referenceSky(t *testing.T, seed int64, h, site, dark float64) *Trace {
	t.Helper()
	tr, err := NewSeededGenerator(seed, skyOptions(h)...).Trace(h, h/256, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Samples {
		tr.Samples[i] *= site
	}
	if dark > 0 {
		cut := (1 - dark) * h
		for i := range tr.Samples {
			if float64(i)*tr.Step >= cut {
				tr.Samples[i] = 0
			}
		}
	}
	return tr
}

// skyQueries returns query times over horizon h in one of five orders:
// forward in stepper steps, backward, each time repeated, random, and the
// edges (t < 0, sample boundaries and their neighbours, the cut, t ≥ h,
// NaN and ±Inf).
func skyQueries(order uint8, qseed int64, h, cut float64) []float64 {
	const steps = 600
	ts := make([]float64, 0, 3*steps)
	dt := h / steps
	switch order % 5 {
	case 0:
		for k := 0; k <= steps; k++ {
			ts = append(ts, float64(k)*dt)
		}
	case 1:
		for k := steps; k >= 0; k-- {
			ts = append(ts, float64(k)*dt)
		}
	case 2:
		for k := 0; k <= steps; k += 3 {
			t := float64(k) * dt
			ts = append(ts, t, t, math.Nextafter(t, -1), t)
		}
	case 3:
		rng := rand.New(rand.NewSource(qseed))
		for k := 0; k < steps; k++ {
			ts = append(ts, h*(1.2*rng.Float64()-0.1))
		}
	default:
		step := h / 256
		ts = append(ts, -h, -step, math.Nextafter(0, -1), 0, math.NaN(), math.Inf(-1))
		for _, k := range []float64{1, 2, 100, 254, 255, 256, 257} {
			at := k * step
			ts = append(ts, math.Nextafter(at, 0), at, math.Nextafter(at, 2*h))
		}
		if !math.IsInf(cut, 1) {
			for _, d := range []float64{-2, -1, 0, 1, 2} {
				at := cut + d*step
				ts = append(ts, math.Nextafter(at, -h), at, math.Nextafter(at, 2*h))
			}
		}
		ts = append(ts, h, 2*h, math.Inf(1), math.NaN(), 0)
	}
	return ts
}

// checkSky compares the streamed sky with its reference at every query,
// bit for bit, through both EventSource methods.
func checkSky(t *testing.T, sky *Sky, ref *Trace, ts []float64) {
	t.Helper()
	for q, tt := range ts {
		if got, want := sky.NextChange(tt), ref.NextChange(tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: NextChange(%g) = %g, trace %g", q, tt, got, want)
		}
		if got, want := sky.At(tt), ref.At(tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: At(%g) = %g, trace %g", q, tt, got, want)
		}
	}
}

// inRange returns x when it lies in [lo, hi], and otherwise folds it in.
func inRange(x, lo, hi float64) float64 {
	if x >= lo && x <= hi {
		return x
	}
	u := math.Abs(x)
	u -= math.Floor(u)
	if !(u >= 0 && u <= 1) { // NaN and ±Inf
		u = 0
	}
	return lo + (hi-lo)*u
}

// FuzzSkyParity: a node's streamed sky returns what the rendered trace
// returns — Generator.Trace scaled by the site, with the dark cut applied —
// bit for bit, through At and NextChange, in every query order.
func FuzzSkyParity(f *testing.F) {
	for _, c := range []struct {
		seed        int64
		site, dark  float64
		order       uint8
		qseed       int64
		longHorizon bool
	}{
		{1, 0.5, 0, 0, 0, false},
		{-7, 0.12, 0.5, 1, 0, false},
		{13, 1, 0.99, 2, 0, true},
		{42, 0.77, 0.9, 3, 5, true},
		{3, 0.3, 1, 4, 0, false},
		{89482311, 0.99, 0.25, 4, 0, true},
		{0, 0.2, 0.001, 3, 9, false},
	} {
		f.Add(c.seed, c.site, c.dark, c.order, c.qseed, c.longHorizon)
	}
	f.Fuzz(func(t *testing.T, seed int64, site, dark float64, order uint8, qseed int64, longHorizon bool) {
		site, dark = inRange(site, minSite, 1), inRange(dark, 0, 1)
		h := 0.05
		if longHorizon {
			h = 10
		}
		ref := referenceSky(t, seed, h, site, dark)
		cut := skyCut(h, dark)
		sky, err := NewSky(seed, h, h/256, site, cut, skyOptions(h)...)
		if err != nil {
			t.Fatal(err)
		}
		checkSky(t, sky, ref, skyQueries(order, qseed, h, cut))
	})
}

// minSite is the least site scale of a fleet node.
const minSite = 0.12

// TestSkyMatchesTrace runs every query order over the fleet's geometries,
// lit and dark.
func TestSkyMatchesTrace(t *testing.T) {
	for _, h := range []float64{0.05, 10} {
		for _, dark := range []float64{0, 0.5, 0.99, 1} {
			for seed := int64(0); seed < 4; seed++ {
				site := minSite + 0.29*float64(seed)
				ref, cut := referenceSky(t, seed, h, site, dark), skyCut(h, dark)
				sky, err := NewSky(seed, h, h/256, site, cut, skyOptions(h)...)
				if err != nil {
					t.Fatal(err)
				}
				for order := uint8(0); order < 5; order++ {
					checkSky(t, sky, ref, skyQueries(order, seed, h, cut))
				}
			}
		}
	}
}

// A sky's lit samples must be nonzero for NextChange to answer from the
// cut, so NewSky refuses a scale that could make one zero. (Its bad
// geometries are in TestTraceErrors.)
func TestNewSkyRejects(t *testing.T) {
	for _, scale := range []float64{0, -0.5, math.NaN(), math.SmallestNonzeroFloat64} {
		if _, err := NewSky(1, 1, 0.1, scale, math.Inf(1)); err == nil {
			t.Errorf("scale %g accepted", scale)
		}
	}
}
