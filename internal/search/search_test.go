package search

import (
	"math"
	"math/rand"
	"testing"
)

// The oracles below are the loops GoldenMax and Bisect replaced, copied
// from their call sites. The one edit is that the golden-section steps
// round their product explicitly, as GoldenMax does: amd64 and 386 never
// fuse a multiply-add, so there the conversion changes no bit, and on an
// architecture that does the oracle stays what GoldenMax must equal.

const oracleInvPhi = 0.6180339887498949

// probe records every argument a search evaluates, in order.
type probe struct{ xs []float64 }

func (p *probe) at(x float64) { p.xs = append(p.xs, x) }

// oracleMPP is pv.(*Cell).MPP's and core.maximizeScan's refinement: a
// maximizer.
func oracleMPP(lo, hi, tol float64, maxIter int, f func(float64) float64) (float64, float64) {
	x1 := hi - float64(oracleInvPhi*(hi-lo))
	x2 := lo + float64(oracleInvPhi*(hi-lo))
	f1 := f(x1)
	f2 := f(x2)
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		if f1 < f2 {
			lo = x1
			x1, f1 = x2, f2
			x2 = lo + float64(oracleInvPhi*(hi-lo))
			f2 = f(x2)
		} else {
			hi = x2
			x2, f2 = x1, f1
			x1 = hi - float64(oracleInvPhi*(hi-lo))
			f1 = f(x1)
		}
	}
	return lo, hi
}

// oracleMinimize is cpu.minimizeEnergy, the minimizer behind
// ConventionalMEP, returning its final bracket.
func oracleMinimize(lo, hi, tol float64, maxIter int, f func(float64) float64) (float64, float64) {
	x1 := hi - float64(oracleInvPhi*(hi-lo))
	x2 := lo + float64(oracleInvPhi*(hi-lo))
	f1, f2 := f(x1), f(x2)
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		if f1 > f2 {
			lo = x1
			x1, f1 = x2, f2
			x2 = lo + float64(oracleInvPhi*(hi-lo))
			f2 = f(x2)
		} else {
			hi = x2
			x2, f2 = x1, f1
			x1 = hi - float64(oracleInvPhi*(hi-lo))
			f1 = f(x1)
		}
	}
	return lo, hi
}

// oracleBisect is the loop of reg.OutputPower, pv's OpenCircuitVoltage,
// OperatingPoint and stringSolver.current, and core.BypassCrossover.
func oracleBisect(lo, hi, tol float64, maxIter int, pred func(float64) bool) (float64, float64) {
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		mid := 0.5 * (lo + hi)
		if pred(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// oracleFastest is sched.FastestCompletion's loop: a feasible probe
// moves hi.
func oracleFastest(lo, hi, tol float64, maxIter int, feasible func(float64) bool) (float64, float64) {
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		mid := 0.5 * (lo + hi)
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// oracleWarm is cpu.(*Processor).VoltageForFrequencyWarm's loop with its
// memo bounds fA and fB.
func oracleWarm(lo, hi, tol float64, maxIter int, f float64, fmax func(float64) float64) (l, h, fA, fB float64) {
	fA, fB = math.Inf(-1), math.Inf(1)
	for iter := 0; iter < maxIter && hi-lo > tol; iter++ {
		mid := 0.5 * (lo + hi)
		fm := fmax(mid)
		if fm < f {
			lo = mid
			if fm > fA {
				fA = fm
			}
		} else {
			hi = mid
			if fm < fB {
				fB = fm
			}
		}
	}
	return lo, hi, fA, fB
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameProbes(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// randomFloat draws from a spread of magnitudes, signs and specials.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Inf(1)
	case 2:
		return math.NaN()
	case 3:
		return -rng.Float64()
	default:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
}

// randomTol draws a tolerance: zero, tiny, typical or wider than most
// brackets.
func randomTol(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.Inf(1)
	default:
		return math.Pow(10, -float64(rng.Intn(14)))
	}
}

// objectives are the unimodal (and not so unimodal) functions the golden
// section is checked on, parameterized by a centre c.
var objectives = []func(c float64) func(float64) float64{
	func(c float64) func(float64) float64 { return func(x float64) float64 { return -(x - c) * (x - c) } },
	func(c float64) func(float64) float64 { return func(x float64) float64 { return -math.Abs(x - c) } },
	func(c float64) func(float64) float64 { // plateau: ties take the else branch
		return func(x float64) float64 { return math.Min(0, -math.Abs(x-c)+0.1) }
	},
	func(c float64) func(float64) float64 { // NaN on one side
		return func(x float64) float64 {
			if x > c {
				return math.NaN()
			}
			return x
		}
	},
	func(c float64) func(float64) float64 { // two humps
		return func(x float64) float64 { return math.Sin(x/(math.Abs(c)+1e-3)) + x*c }
	},
}

// TestGoldenMaxMatchesOracles: over random brackets, tolerances, caps and
// objectives, GoldenMax probes the same points in the same order and
// returns the same bracket, bit for bit, as the maximizing loop on f and
// the minimizing loop on -f.
func TestGoldenMaxMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		lo, hi := randomFloat(rng), randomFloat(rng)
		if rng.Intn(4) > 0 && hi < lo {
			lo, hi = hi, lo
		}
		tol, maxIter := randomTol(rng), rng.Intn(250)
		f := objectives[rng.Intn(len(objectives))](randomFloat(rng))

		var want, got probe
		wl, wh := oracleMPP(lo, hi, tol, maxIter, func(x float64) float64 { want.at(x); return f(x) })
		gl, gh := GoldenMax(lo, hi, tol, maxIter, func(x float64) float64 { got.at(x); return f(x) })
		if !sameBits(wl, gl) || !sameBits(wh, gh) || !sameProbes(want.xs, got.xs) {
			t.Fatalf("GoldenMax(%g, %g, %g, %d) = [%g, %g] after %d probes, loop [%g, %g] after %d",
				lo, hi, tol, maxIter, gl, gh, len(got.xs), wl, wh, len(want.xs))
		}

		// The minimizer on g is the maximizer on -g.
		g := func(x float64) float64 { return -f(x) }
		want.xs, got.xs = want.xs[:0], got.xs[:0]
		wl, wh = oracleMinimize(lo, hi, tol, maxIter, func(x float64) float64 { want.at(x); return g(x) })
		gl, gh = GoldenMax(lo, hi, tol, maxIter, func(x float64) float64 { got.at(x); return -g(x) })
		if !sameBits(wl, gl) || !sameBits(wh, gh) || !sameProbes(want.xs, got.xs) {
			t.Fatalf("GoldenMax on -g (%g, %g, %g, %d) = [%g, %g], minimizing loop [%g, %g]",
				lo, hi, tol, maxIter, gl, gh, wl, wh)
		}
	}
}

// TestBisectMatchesOracles: over random brackets, tolerances, caps and
// step predicates, Bisect probes the same midpoints and returns the same
// bracket as the plain loop, as FastestCompletion's inverted loop (with
// keepLo = !feasible), and as VoltageForFrequencyWarm's loop, whose memo
// bounds the predicate records.
func TestBisectMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 20000; n++ {
		lo, hi := randomFloat(rng), randomFloat(rng)
		if rng.Intn(4) > 0 && hi < lo {
			lo, hi = hi, lo
		}
		tol, maxIter := randomTol(rng), rng.Intn(250)
		c := randomFloat(rng)
		above := func(x float64) bool { return x < c }

		var want, got probe
		wl, wh := oracleBisect(lo, hi, tol, maxIter, func(x float64) bool { want.at(x); return above(x) })
		gl, gh := Bisect(lo, hi, tol, maxIter, func(x float64) bool { got.at(x); return above(x) })
		if !sameBits(wl, gl) || !sameBits(wh, gh) || !sameProbes(want.xs, got.xs) {
			t.Fatalf("Bisect(%g, %g, %g, %d) step at %g = [%g, %g], loop [%g, %g]", lo, hi, tol, maxIter, c, gl, gh, wl, wh)
		}

		feasible := func(x float64) bool { return x >= c }
		want.xs, got.xs = want.xs[:0], got.xs[:0]
		wl, wh = oracleFastest(lo, hi, tol, maxIter, func(x float64) bool { want.at(x); return feasible(x) })
		gl, gh = Bisect(lo, hi, tol, maxIter, func(x float64) bool { got.at(x); return !feasible(x) })
		if !sameBits(wl, gl) || !sameBits(wh, gh) || !sameProbes(want.xs, got.xs) {
			t.Fatalf("Bisect on !feasible (%g, %g, %g, %d) = [%g, %g], loop [%g, %g]", lo, hi, tol, maxIter, gl, gh, wl, wh)
		}

		// A monotone fmax with a NaN region, and a target frequency.
		fmax := func(v float64) float64 {
			if v < c-1 {
				return math.NaN()
			}
			return (v - c) * math.Abs(v-c)
		}
		f := randomFloat(rng)
		wl, wh, wA, wB := oracleWarm(lo, hi, tol, maxIter, f, fmax)
		fA, fB := math.Inf(-1), math.Inf(1)
		gl, gh = Bisect(lo, hi, tol, maxIter, func(mid float64) bool {
			fm := fmax(mid)
			if fm < f {
				if fm > fA {
					fA = fm
				}
				return true
			}
			if fm < fB {
				fB = fm
			}
			return false
		})
		if !sameBits(wl, gl) || !sameBits(wh, gh) || !sameBits(wA, fA) || !sameBits(wB, fB) {
			t.Fatalf("warm Bisect(%g, %g, %g, %d) f=%g = [%g, %g] (%g, %g], loop [%g, %g] (%g, %g]",
				lo, hi, tol, maxIter, f, gl, gh, fA, fB, wl, wh, wA, wB)
		}
	}
}

// TestBisectNoProbes: a NaN bracket, a reversed one, one already within
// tol and a zero cap all return the bracket untouched without calling the
// predicate.
func TestBisectNoProbes(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		lo, hi, tol float64
		maxIter     int
	}{
		{nan, 1, 1e-9, 200}, {0, nan, 1e-9, 200}, {nan, nan, 0, 200},
		{1, 0, 1e-9, 200}, {0, 1e-10, 1e-9, 200}, {0.5, 0.5, 0, 200}, {0, 1, 1e-9, 0},
	} {
		calls := 0
		lo, hi := Bisect(c.lo, c.hi, c.tol, c.maxIter, func(float64) bool { calls++; return true })
		if calls != 0 || !sameBits(lo, c.lo) || !sameBits(hi, c.hi) {
			t.Errorf("Bisect(%g, %g, %g, %d) = [%g, %g] after %d calls, want the bracket and 0 calls",
				c.lo, c.hi, c.tol, c.maxIter, lo, hi, calls)
		}
	}
}

// TestGoldenMaxNoSteps: the same brackets take no golden-section step;
// the search evaluates only its two interior points, as the loops it
// replaced did before their first test.
func TestGoldenMaxNoSteps(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		lo, hi, tol float64
		maxIter     int
	}{
		{nan, 1, 1e-9, 200}, {0, nan, 1e-9, 200}, {1, 0, 1e-9, 200}, {0, 1e-10, 1e-9, 200}, {0, 1, 1e-9, 0},
	} {
		calls := 0
		lo, hi := GoldenMax(c.lo, c.hi, c.tol, c.maxIter, func(x float64) float64 { calls++; return x })
		if calls != 2 || !sameBits(lo, c.lo) || !sameBits(hi, c.hi) {
			t.Errorf("GoldenMax(%g, %g, %g, %d) = [%g, %g] after %d calls, want the bracket and 2 calls",
				c.lo, c.hi, c.tol, c.maxIter, lo, hi, calls)
		}
	}
}

// TestInfiniteBracketRunsToCap: with an +Inf top every midpoint is +Inf
// and the bracket never narrows, so only the cap stops a bisection (the
// case OpenCircuitVoltage meets when the photocurrent overflows). A
// golden section's lower interior point is Inf-Inf = NaN, which enters the
// bracket by the second step and stops it. Both return the replaced
// loops' bracket after the same calls.
func TestInfiniteBracketRunsToCap(t *testing.T) {
	inf := math.Inf(1)
	for _, maxIter := range []int{1, 7, 200} {
		calls := 0
		lo, hi := Bisect(0, inf, 1e-7, maxIter, func(float64) bool { calls++; return false })
		wl, wh := oracleBisect(0, inf, 1e-7, maxIter, func(float64) bool { return false })
		if calls != maxIter || !sameBits(lo, wl) || !sameBits(hi, wh) {
			t.Errorf("Bisect(0, +Inf) cap %d: %d calls, [%g, %g]; loop [%g, %g]", maxIter, calls, lo, hi, wl, wh)
		}

		calls = 0
		f := func(x float64) float64 { calls++; return -x }
		lo, hi = GoldenMax(0, inf, 1e-7, maxIter, f)
		wantCalls := calls
		calls = 0
		wl, wh = oracleMPP(0, inf, 1e-7, maxIter, f)
		if calls != wantCalls || !sameBits(lo, wl) || !sameBits(hi, wh) {
			t.Errorf("GoldenMax(0, +Inf) cap %d: %d calls, [%g, %g]; loop %d calls, [%g, %g]",
				maxIter, wantCalls, lo, hi, calls, wl, wh)
		}
	}
}
