package pv

import (
	"math"
	"math/rand"
	"testing"
)

// sweepVoltages returns a voltage grid covering every solver regime for the
// given cell: short circuit, the power-producing knee, open circuit, and
// far beyond Voc where the current goes negative (including the bracket
// extension region).
func sweepVoltages(c *Cell, irradiance float64) []float64 {
	voc := c.OpenCircuitVoltage(irradiance)
	vs := []float64{-0.5, -1e-9, 0, 1e-9}
	for f := 0.05; f <= 1.30; f += 0.05 {
		vs = append(vs, f*voc)
	}
	// Far beyond Voc: operating currents below -Iph trigger the geometric
	// bracket extension in the reference bisection.
	vs = append(vs, voc+0.1, voc+0.5, 2*voc, 5*voc, 10*voc+1)
	return vs
}

// TestCurrentFastMatchesReference pins the headline guarantee on the
// default calibration: the Newton fast path (stateless and warm-started)
// returns bit-identical values to the reference bisection at every voltage
// and irradiance regime, including beyond-Voc negative currents.
func TestCurrentFastMatchesReference(t *testing.T) {
	c := NewCell()
	for _, irr := range []float64{IndoorDim, IndoorBright, QuarterSun, HalfSun, FullSun, 1e-6, 1e-12} {
		var warm SolverState
		for _, v := range sweepVoltages(c, irr) {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Errorf("Current(%g, %g) = %v, reference %v (diff %g)", v, irr, got, want, got-want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Errorf("CurrentWarm(%g, %g) = %v, reference %v (diff %g)", v, irr, got, want, got-want)
			}
		}
	}
}

// TestCurrentWarmStateIndependence drives one SolverState through a
// deliberately hostile sequence — large voltage jumps, irradiance steps,
// beyond-Voc excursions — and checks that the carried state never changes a
// result: CurrentWarm must equal the stateless solve bit-for-bit no matter
// what the previous operating point was.
func TestCurrentWarmStateIndependence(t *testing.T) {
	c := NewCell()
	var warm SolverState
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 5000; n++ {
		v := rng.Float64()*4 - 0.5            // [-0.5, 3.5) V spans all regimes
		irr := math.Pow(10, -4*rng.Float64()) // [1e-4, 1]
		want := c.CurrentReference(v, irr)
		if got := c.CurrentWarm(v, irr, &warm); got != want {
			t.Fatalf("step %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
		}
	}
}

// TestCurrentWarmTransientProfile mimics the simulator's actual call
// pattern — a capacitor voltage moving by microvolts per step, under
// constant light or under light that changes every step as an interpolated
// weather trace does — and checks bit-identity along the whole trajectory,
// plus that the state actually warms up.
func TestCurrentWarmTransientProfile(t *testing.T) {
	cases := []struct {
		name string
		irr  func(n int) float64
	}{
		{"constant half sun", func(int) float64 { return HalfSun }},
		{"drifting irradiance", func(n int) float64 {
			// A slow cloud wave plus a per-step ramp: a new photocurrent on
			// every call, sweeping roots across several binades.
			return 0.02 + 0.5*(1+math.Sin(float64(n)/900)) + 1e-5*float64(n%97)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCell()
			var warm SolverState
			v := 0.2
			for n := 0; n < 20000; n++ {
				v += 5e-5 * math.Sin(float64(n)/300) // slow charge/discharge wiggle
				irr := tc.irr(n)
				want := c.CurrentReference(v, irr)
				if got := c.CurrentWarm(v, irr, &warm); got != want {
					t.Fatalf("step %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
				}
			}
			if !warm.warm {
				t.Error("solver state never warmed up over a smooth transient")
			}
			warm.Reset()
			if warm.warm {
				t.Error("Reset left the state warm")
			}
		})
	}
}

// randomSolverCell draws a physically plausible calibration with wider
// spread than cache_test.go's randomCell: the ranges cover paper-scale
// modules through larger panels, with enough dynamic range to hit the
// solver's edge regimes. Options in override apply after the draw.
func randomSolverCell(rng *rand.Rand, override ...Option) *Cell {
	return NewCell(append([]Option{
		WithPhotoCurrent(math.Pow(10, -4+3*rng.Float64())),       // 0.1 mA .. 100 mA
		WithSaturationCurrent(math.Pow(10, -12+6*rng.Float64())), // 1 pA .. 1 uA
		WithIdealityFactor(1 + rng.Float64()),                    // 1 .. 2
		WithSeriesCells(1 + rng.Intn(6)),                         // 1 .. 6 junctions
		WithSeriesResistance(math.Pow(10, -1+2*rng.Float64())),   // 0.1 .. 10 ohm
		WithShuntResistance(math.Pow(10, 2+3*rng.Float64())),     // 100 .. 100k ohm
	}, override...)...)
}

// TestCurrentFastPropertyRandomCells is the satellite property test: for
// random cell parameters, voltages and irradiances, the fast solve matches
// the reference bisection bit-for-bit (a strictly stronger property than
// the 2e-7*Iph tolerance bound, which is asserted as well against the raw
// Newton root).
func TestCurrentFastPropertyRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3000; n++ {
		c := randomSolverCell(rng)
		irr := math.Pow(10, -3*rng.Float64())
		voc := c.OpenCircuitVoltage(irr)
		var warm SolverState
		for _, v := range []float64{
			-0.2, 0, rng.Float64() * voc, voc, voc * (1 + rng.Float64()), 3*voc + 1,
		} {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Fatalf("cell %d: Current(%g, %g) = %v, reference %v", n, v, irr, got, want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Fatalf("cell %d: CurrentWarm(%g, %g) = %v, reference %v", n, v, irr, got, want)
			}
			// Tolerance-scale check on the Newton root itself: the root and
			// the bisection answer must agree far inside 2e-7*Iph — except
			// under negative bias, where the true root can exceed Iph and
			// the reference bracket [-Iph, Iph] clamps at its upper end (it
			// only ever extends downward); the replay reproduces that clamp
			// bit-exactly, so only in-bracket roots are compared here.
			iph := c.photoCurrent(irr)
			// 1e-12 covers the bisection's own final-interval quantization,
			// which dominates for sub-microamp photocurrents.
			if root, ok := c.newtonRoot(v, iph, 0, nil); ok && root <= iph {
				if tol := 2e-7*iph + 1e-12; math.Abs(root-want) > tol {
					t.Fatalf("cell %d: newton root %v vs reference %v exceeds %g", n, root, want, tol)
				}
			}
		}
	}
}

// voltageForCurrent returns the voltage at which c's reference current at
// irr falls through target, bisecting v down to adjacent floats (the
// current falls as v rises).
func voltageForCurrent(c *Cell, irr, target float64) float64 {
	lo, hi := -1e3, 1e3
	for mid := 0.5 * (lo + hi); mid != lo && mid != hi; mid = 0.5 * (lo + hi) {
		if c.CurrentReference(mid, irr) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestCurrentReplayBinadeEdges drives random cells to the edges of the
// integer replay (newton.go): Newton roots a few ulps above and below a
// power of two, where the bracket straddles a binade for many levels;
// photocurrents that are exact powers of two, so the first bracket
// [-Iph, Iph] ends on a binade boundary (up to kiloamps, where the stop
// width is a handful of ulps); photocurrents whose bracket halves onto the
// 1e-12 A stop width; negative roots beyond Voc, which never leave the
// float loop; and the largest photocurrents randomSolverCell draws.
// Every solve, stateless and warm, must match the reference bit for bit,
// and the test fails if it did not reach each edge.
func TestCurrentReplayBinadeEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(c *Cell, v, irr float64, warm *SolverState) {
		t.Helper()
		want := c.CurrentReference(v, irr)
		if got := c.Current(v, irr); got != want {
			t.Fatalf("Current(%x, %x) = %x, reference %x", v, irr, got, want)
		}
		if got := c.CurrentWarm(v, irr, warm); got != want {
			t.Fatalf("CurrentWarm(%x, %x) = %x, reference %x", v, irr, got, want)
		}
	}
	var above, below, negative int
	for n := 0; n < 400; n++ {
		var c *Cell
		switch n % 4 {
		case 0:
			c = randomSolverCell(rng)
		case 1:
			c = randomSolverCell(rng, WithPhotoCurrent(0.1*(1-0.01*rng.Float64())))
		case 2:
			c = randomSolverCell(rng, WithPhotoCurrent(math.Ldexp(1, -14+rng.Intn(27))))
		default:
			// The bracket width is 2*Iph/2^k after k levels, so an Iph
			// within a few ulps-worth of 2^(k-1)*1e-12 ends the bisection
			// with its width exactly at the integer stop threshold.
			jitter := 1 + 4e-5*(2*rng.Float64()-1)
			c = randomSolverCell(rng, WithPhotoCurrent(math.Ldexp(1e-12, 30+rng.Intn(8))*jitter))
		}
		const irr = 1.0 // photocurrent = the cell's full-sun value, bit for bit
		iph := c.photoCurrent(irr)
		var warm SolverState
		for _, v := range sweepVoltages(c, irr) {
			check(c, v, irr, &warm)
			if root, ok := c.newtonRoot(v, iph, 0, nil); ok && root < 0 {
				negative++
			}
		}
		// Step the voltage away from where the current crosses a power of
		// two by 1, 2, 4, ... ulps on either side.
		pow2 := math.Ldexp(1, math.Ilogb(iph*(0.05+0.9*rng.Float64())))
		vx := voltageForCurrent(c, irr, pow2)
		ulp := math.Nextafter(vx, math.Inf(1)) - vx
		for e := 0; e <= 40; e++ {
			for _, sign := range []float64{-1, 1} {
				v := vx + sign*math.Ldexp(ulp, e)
				check(c, v, irr, &warm)
				root, ok := c.newtonRoot(v, iph, 0, nil)
				switch {
				case !ok:
				case root >= pow2 && root < pow2*(1+1e-9):
					above++
				case root < pow2 && root > pow2*(1-1e-9):
					below++
				}
			}
		}
	}
	if above == 0 || below == 0 || negative == 0 {
		t.Fatalf("edges not reached: %d roots just above a power of two, %d just below, %d negative",
			above, below, negative)
	}
}

// TestCurrentFastDegenerateFallsBack exercises inputs outside the Newton
// envelope: the fast path must take the reference bisection and still agree
// with it exactly.
func TestCurrentFastDegenerateFallsBack(t *testing.T) {
	cases := []struct {
		name string
		cell *Cell
		v    float64
		irr  float64
	}{
		{"zero photocurrent", NewCell(WithPhotoCurrent(0)), 0.5, 1.0},
		{"NaN voltage", NewCell(), math.NaN(), 1.0},
		{"+Inf voltage", NewCell(), math.Inf(1), 1.0},
		{"negative shunt", NewCell(WithShuntResistance(-100)), 0.5, 1.0},
		{"zero junction scale", NewCell(WithIdealityFactor(0)), 0.5, 1.0},
		{"negative saturation", NewCell(WithSaturationCurrent(-1e-9)), 0.5, 1.0},
	}
	for _, tc := range cases {
		want := tc.cell.CurrentReference(tc.v, tc.irr)
		got := tc.cell.Current(tc.v, tc.irr)
		var warm SolverState
		gotWarm := tc.cell.CurrentWarm(tc.v, tc.irr, &warm)
		same := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		if !same(got, want) || !same(gotWarm, want) {
			t.Errorf("%s: Current=%v CurrentWarm=%v reference=%v", tc.name, got, gotWarm, want)
		}
	}
}

// TestOperatingPointBranchesUnchanged pins the load-line solver's error
// branches on top of the fast Current: no-operating-point still errors, a
// zero-draw load still floats at Voc.
func TestOperatingPointBranchesUnchanged(t *testing.T) {
	c := NewCell()
	// A load hungrier than the cell's short-circuit current at 0 V.
	if _, err := c.OperatingPoint(0.5, func(float64) float64 { return 1.0 }); err == nil {
		t.Error("hungry load line: want ErrNoOperatingPoint, got nil")
	}
	v, err := c.OperatingPoint(0.5, func(float64) float64 { return 0 })
	if err != nil {
		t.Fatalf("zero load: %v", err)
	}
	// Current(Voc) lands within solver tolerance of zero on either side, so
	// the zero-load solve either returns Voc exactly (floating branch) or
	// bisects to within the voltage tolerance of it.
	if voc := c.OpenCircuitVoltage(0.5); math.Abs(v-voc) > voltageSolveTolerance {
		t.Errorf("zero load floats at %v, want Voc %v (+/- %g)", v, voc, voltageSolveTolerance)
	}
}

// FuzzCurrentSolverParity fuzzes cell parameters and a walk through
// (v, irr): from the fuzzed start the solver steps by (dv, dirr) with its
// state carried along, as a transient under changing light does, and at
// every step the fast path (stateless and warm) must return exactly what
// the reference bisection returns. A zero step re-solves one point.
func FuzzCurrentSolverParity(f *testing.F) {
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 1.0, 0.5, 0.0, 0.0)
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.25, 1.45, 1e-4, 0.0) // just above Voc
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.25, 15.0, 0.0, 0.0)  // bracket extension
	f.Add(1e-4, 1e-12, 1.0, 1, 0.1, 100.0, 1e-3, 0.0, 0.0, 1e-5)     // short circuit
	f.Add(0.1, 1e-6, 2.0, 6, 10.0, 1e5, 1.0, -0.3, 1e-3, -1e-3)      // negative bias
	f.Add(16e-3, 9.5e-8, 1.5, 3, 0.0, 3000.0, 1.0, 0.5, 1e-3, 1e-3)  // Rs = 0 direct path
	f.Add(16e-3, 9.5e-8, 1.5, 3, 2.0, 3000.0, 0.6, 1.2, 1e-5, 5e-5)  // drifting light at the knee
	f.Add(0.125, 1e-9, 1.3, 2, 1.0, 1e4, 1.0, 0.0, 1e-6, -1e-6)      // Iph a power of two
	f.Fuzz(func(t *testing.T, iph, i0, n float64, ns int, rs, rsh, irr, v, dv, dirr float64) {
		// Clamp to the physically sane envelope; the fuzzer's job is to
		// explore solver regimes, not to feed NaN cell calibrations (those
		// are covered by TestCurrentFastDegenerateFallsBack).
		if !(iph >= 0 && iph <= 1) || !(i0 >= 0 && i0 <= 1e-3) ||
			!(n >= 0.5 && n <= 4) || ns < 1 || ns > 10 ||
			!(rs >= 0 && rs <= 100) || !(rsh >= 1 && rsh <= 1e7) ||
			!(irr >= 0 && irr <= 10) || !(v >= -10 && v <= 50) ||
			!(math.Abs(dv) <= 1e-2) || !(math.Abs(dirr) <= 1e-2) {
			t.Skip()
		}
		c := NewCell(
			WithPhotoCurrent(iph), WithSaturationCurrent(i0),
			WithIdealityFactor(n), WithSeriesCells(ns),
			WithSeriesResistance(rs), WithShuntResistance(rsh),
		)
		var warm SolverState
		for step := 0; step < 64; step++ {
			want := c.CurrentReference(v, irr)
			if got := c.Current(v, irr); got != want {
				t.Fatalf("step %d: Current(%x, %x) = %x, reference %x", step, v, irr, got, want)
			}
			if got := c.CurrentWarm(v, irr, &warm); got != want {
				t.Fatalf("step %d: CurrentWarm(%x, %x) = %x, reference %x", step, v, irr, got, want)
			}
			v += dv
			irr += dirr
		}
	})
}

// --- Benchmarks: the kernel-level speedup the PR claims. ---

// rampVoltage mimics one simulation step's voltage motion: microvolt-scale
// movement around the knee of the I-V curve.
func rampVoltage(i int) float64 {
	return 0.95 + 1e-6*float64(i%1000)
}

// BenchmarkCellCurrentWarm measures the warm-started Newton solve on a
// slowly moving voltage — the transient simulator's exact call pattern.
func BenchmarkCellCurrentWarm(b *testing.B) {
	c := NewCell()
	var warm SolverState
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentWarm(rampVoltage(i), 0.8, &warm)
	}
	benchSink = sink
}

// driftIrradiance mimics an interpolated weather trace: the light level
// changes a little on every step, so every solve sees a new photocurrent.
func driftIrradiance(i int) float64 {
	return 0.6 + 0.2*float64(i%4096)/4096
}

// BenchmarkCellCurrentWarmDrifting is BenchmarkCellCurrentWarm under light
// that changes on every call — a fleet or scenario node's call pattern.
func BenchmarkCellCurrentWarmDrifting(b *testing.B) {
	c := NewCell()
	var warm SolverState
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentWarm(rampVoltage(i), driftIrradiance(i), &warm)
	}
	benchSink = sink
}

// BenchmarkCellCurrentCold measures the stateless fast path (Newton from a
// cold start plus replay) on the same voltage profile.
func BenchmarkCellCurrentCold(b *testing.B) {
	c := NewCell()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.Current(rampVoltage(i), 0.8)
	}
	benchSink = sink
}

// BenchmarkCellCurrentReference measures the original bisection — the
// baseline the warm path must beat by >= 5x.
func BenchmarkCellCurrentReference(b *testing.B) {
	c := NewCell()
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = c.CurrentReference(rampVoltage(i), 0.8)
	}
	benchSink = sink
}

// benchSink defeats dead-code elimination in the benchmarks above.
var benchSink float64
