package expt

import (
	"math"
	"testing"
)

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBlinkPhaseStepTimes compares blinkPhase with math.Mod at every step
// time k·2 µs the stepper visits in an ext-intermittent run, and a little
// past its 800 ms horizon.
func TestBlinkPhaseStepTimes(t *testing.T) {
	const step = 2e-6
	last := int(extIntermittentMaxTime/step) + 10
	for k := 0; k <= last; k++ {
		tt := float64(k) * step
		if got, want := blinkPhase(tt), math.Mod(tt, blinkPeriod); !sameBits(got, want) {
			t.Fatalf("k=%d t=%g: blinkPhase %g (%#x), math.Mod %g (%#x)",
				k, tt, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestBlinkPhaseNearMultiples checks the times where the floored quotient
// can overshoot: a few ulps either side of n periods, for small n and for
// n up to the fast path's 2^52 limit.
func TestBlinkPhaseNearMultiples(t *testing.T) {
	var ns []float64
	for n := 1.0; n <= 2000; n++ {
		ns = append(ns, n)
	}
	for n := 2048.0; n <= 1<<52; n *= 1.37 {
		ns = append(ns, math.Floor(n), math.Floor(n)+1)
	}
	for _, n := range ns {
		mid := n * blinkPeriod
		for _, dir := range []float64{0, math.Inf(1)} {
			x := mid
			for i := 0; i < 4; i++ {
				if got, want := blinkPhase(x), math.Mod(x, blinkPeriod); !sameBits(got, want) {
					t.Fatalf("n=%g t=%g: blinkPhase %g, math.Mod %g", n, x, got, want)
				}
				x = math.Nextafter(x, dir)
			}
		}
	}
}

// FuzzBlinkPhase compares blinkPhase with math.Mod bit for bit on any
// float64.
func FuzzBlinkPhase(f *testing.F) {
	limit := blinkPeriod * (1 << 52)
	for _, t := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-3, 3e-3, blinkPeriod, math.Nextafter(blinkPeriod, 0), math.Nextafter(blinkPeriod, 1),
		math.Nextafter(blinkPeriod/2, 0), blinkPeriod / 2, 2 * blinkPeriod, 133 * blinkPeriod,
		0.8, 400000 * 2e-6, -0.8, -blinkPeriod,
		math.Nextafter(limit, 0), limit, math.Nextafter(limit, math.Inf(1)),
		1e300, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(t))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := blinkPhase(x), math.Mod(x, blinkPeriod); !sameBits(got, want) {
			t.Fatalf("t=%g (%#x): blinkPhase %g (%#x), math.Mod %g (%#x)",
				x, bits, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// blinkSink keeps the benchmarked remainders live.
var blinkSink float64

// BenchmarkBlinkPhase times blinkPhase against math.Mod over the step
// times of an ext-intermittent run.
func BenchmarkBlinkPhase(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blinkSink += blinkPhase(float64(i%400000) * 2e-6)
		}
	})
	b.Run("mod", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blinkSink += math.Mod(float64(i%400000)*2e-6, blinkPeriod)
		}
	})
}
